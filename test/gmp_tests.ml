(* Tests for the GMP substrate: message codec, reliable layer, and the
   group membership daemon (including the re-implanted bugs). *)

open Pfi_engine
open Pfi_stack
open Pfi_netsim
open Pfi_core
open Pfi_gmp

(* ------------------------------------------------------------------ *)
(* Codec                                                              *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let m =
    Gmp_msg.make ~mtype:Gmp_msg.Membership_change ~origin:3 ~sender:1
      ~group_id:1000042 ~subject:5 ~members:[ 1; 3; 5 ] ()
  in
  match Gmp_msg.decode (Gmp_msg.encode m) with
  | Ok d ->
    Alcotest.(check bool) "same message" true (d = m);
    Alcotest.(check string) "type name" "MEMBERSHIP_CHANGE"
      (Gmp_msg.mtype_to_string d.Gmp_msg.mtype)
  | Error e -> Alcotest.failf "decode failed: %s" e

let prop_codec_roundtrip =
  let mtype_gen =
    QCheck.Gen.oneofl
      [ Gmp_msg.Heartbeat; Gmp_msg.Proclaim; Gmp_msg.Join;
        Gmp_msg.Membership_change; Gmp_msg.Mc_ack; Gmp_msg.Mc_nak;
        Gmp_msg.Commit; Gmp_msg.Dead ]
  in
  let gen =
    QCheck.make
      QCheck.Gen.(
        mtype_gen >>= fun mtype ->
        int_bound 65535 >>= fun origin ->
        int_bound 65535 >>= fun sender ->
        int_bound 1000000 >>= fun gid ->
        list_size (int_bound 8) (int_bound 65535) >>= fun members ->
        return (mtype, origin, sender, gid, members))
  in
  QCheck.Test.make ~name:"gmp codec roundtrip" ~count:300 gen
    (fun (mtype, origin, sender, gid, members) ->
      let m = Gmp_msg.make ~mtype ~origin ~sender ~group_id:gid ~members () in
      Gmp_msg.decode (Gmp_msg.encode m) = Ok m)

let test_codec_rejects_garbage () =
  (match Gmp_msg.decode (Bytes.of_string "xy") with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "truncated accepted");
  match Gmp_msg.decode (Bytes.of_string "\xff\x00\x01\x00\x02\x00\x00\x00\x00\x00\x00\x00\x00") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad type accepted"

(* ------------------------------------------------------------------ *)
(* Reliable layer                                                     *)
(* ------------------------------------------------------------------ *)

type rel_node = { rel : Rel_udp.t; drv : Driver.t }

let rel_setup () =
  let sim = Sim.create ~seed:5L () in
  let net = Network.create sim in
  let make name =
    let drv = Driver.create ~node:name () in
    let rel = Rel_udp.create ~sim ~node:name () in
    let device = Network.attach net ~node:name in
    Layer.stack [ Driver.layer drv; Rel_udp.layer rel; device ];
    { rel; drv }
  in
  (sim, net, make "a", make "b")

let rel_send ?(reliable = true) n ~dst text =
  let msg = Message.of_string text in
  Message.set_attr msg Network.dst_attr dst;
  if reliable then Message.set_attr msg Rel_udp.reliable_attr "1";
  Driver.send n.drv msg

let rel_received n = List.map Message.to_string (Driver.received n.drv)

let test_rel_basic () =
  let sim, _net, a, b = rel_setup () in
  rel_send a ~dst:"b" "reliable hello";
  rel_send ~reliable:false a ~dst:"b" "raw hello";
  Sim.run ~until:(Vtime.sec 5) sim;
  Alcotest.(check (list string)) "both delivered, no duplicates"
    [ "reliable hello"; "raw hello" ] (rel_received b);
  Alcotest.(check int) "nothing pending" 0 (Rel_udp.pending_count a.rel)

let test_rel_retransmits_through_loss () =
  let sim, net, a, b = rel_setup () in
  (* block the forward path briefly: the retry must get through *)
  Network.block net ~src:"a" ~dst:"b";
  rel_send a ~dst:"b" "persistent";
  ignore
    (Sim.schedule sim ~delay:(Vtime.ms 700) (fun () ->
         Network.unblock net ~src:"a" ~dst:"b"));
  Sim.run ~until:(Vtime.sec 5) sim;
  Alcotest.(check (list string)) "delivered via retry" [ "persistent" ]
    (rel_received b)

let test_rel_dedups () =
  let sim, net, a, b = rel_setup () in
  (* block the ACK path: sender keeps retransmitting, receiver must
     deliver only one copy *)
  Network.block net ~src:"b" ~dst:"a";
  rel_send a ~dst:"b" "once only";
  Sim.run ~until:(Vtime.sec 10) sim;
  Alcotest.(check (list string)) "single delivery" [ "once only" ] (rel_received b)

let test_rel_gives_up () =
  let sim, net, a, _b = rel_setup () in
  Network.block net ~src:"a" ~dst:"b";
  rel_send a ~dst:"b" "doomed";
  Sim.run ~until:(Vtime.sec 10) sim;
  Alcotest.(check int) "gave up" 1 (Rel_udp.give_up_count a.rel);
  Alcotest.(check int) "not pending" 0 (Rel_udp.pending_count a.rel)

(* ------------------------------------------------------------------ *)
(* GMD cluster harness                                                *)
(* ------------------------------------------------------------------ *)

type gnode = { gmd : Gmd.t; pfi : Pfi_layer.t }

let cluster ?(n = 3) ?(config = Gmd.default_config) ?(seed = 21L) () =
  let sim = Sim.create ~seed () in
  let net = Network.create sim in
  let bb = Blackboard.create () in
  let names = List.init n (fun i -> (Printf.sprintf "compsun%d" (i + 1), i + 1)) in
  let nodes =
    List.map
      (fun (name, node_id) ->
        let peers = List.filter (fun (m, _) -> m <> name) names in
        let gmd = Gmd.create ~sim ~node:name ~id:node_id ~peers ~config () in
        let pfi =
          Pfi_layer.create ~sim ~node:name ~stub:Gmp_stub.stub ~blackboard:bb ()
        in
        let rel = Rel_udp.create ~sim ~node:name () in
        let device = Network.attach net ~node:name in
        Layer.stack [ Gmd.layer gmd; Rel_udp.layer rel; Pfi_layer.layer pfi; device ];
        (name, { gmd; pfi }))
      names
  in
  Pfi_layer.connect (List.map (fun (_, gn) -> gn.pfi) nodes);
  (sim, net, fun name -> List.assoc name nodes)

let start_all sim node names ~stagger =
  List.iteri
    (fun i name ->
      ignore
        (Sim.schedule sim ~delay:(Vtime.mul stagger i) (fun () ->
             Gmd.start (node name).gmd)))
    names

let members_of gn = (Gmd.view gn.gmd).Gmd.members

let test_group_formation () =
  let sim, _net, node = cluster ~n:3 () in
  start_all sim node [ "compsun1"; "compsun2"; "compsun3" ] ~stagger:(Vtime.sec 1);
  Sim.run ~until:(Vtime.sec 60) sim;
  List.iter
    (fun name ->
      let gn = node name in
      Alcotest.(check (list int)) (name ^ " members") [ 1; 2; 3 ] (members_of gn);
      Alcotest.(check int) (name ^ " leader") 1 (Gmd.view gn.gmd).Gmd.leader)
    [ "compsun1"; "compsun2"; "compsun3" ]

let test_views_agree_on_gid () =
  let sim, _net, node = cluster ~n:4 () in
  start_all sim node
    [ "compsun1"; "compsun2"; "compsun3"; "compsun4" ]
    ~stagger:(Vtime.sec 2);
  Sim.run ~until:(Vtime.sec 90) sim;
  let v1 = Gmd.view (node "compsun1").gmd in
  List.iter
    (fun name ->
      let v = Gmd.view (node name).gmd in
      Alcotest.(check int) (name ^ " same gid") v1.Gmd.group_id v.Gmd.group_id;
      Alcotest.(check (list int)) (name ^ " same members") v1.Gmd.members v.Gmd.members)
    [ "compsun2"; "compsun3"; "compsun4" ]

let test_crash_detected () =
  let sim, _net, node = cluster ~n:3 () in
  start_all sim node [ "compsun1"; "compsun2"; "compsun3" ] ~stagger:(Vtime.sec 1);
  (* crash the non-leader compsun3 at t=60 s *)
  ignore (Sim.schedule sim ~delay:(Vtime.sec 60) (fun () -> Gmd.stop (node "compsun3").gmd));
  Sim.run ~until:(Vtime.sec 120) sim;
  Alcotest.(check (list int)) "survivors regroup" [ 1; 2 ]
    (members_of (node "compsun1"));
  Alcotest.(check (list int)) "both agree" [ 1; 2 ] (members_of (node "compsun2"))

let test_leader_crash_crown_prince () =
  let sim, _net, node = cluster ~n:3 () in
  start_all sim node [ "compsun1"; "compsun2"; "compsun3" ] ~stagger:(Vtime.sec 1);
  ignore (Sim.schedule sim ~delay:(Vtime.sec 60) (fun () -> Gmd.stop (node "compsun1").gmd));
  Sim.run ~until:(Vtime.sec 150) sim;
  Alcotest.(check (list int)) "survivors" [ 2; 3 ] (members_of (node "compsun2"));
  Alcotest.(check int) "crown prince leads" 2 (Gmd.view (node "compsun2").gmd).Gmd.leader;
  Alcotest.(check bool) "takeover traced" true
    (Trace.count ~node:"compsun2" ~tag:"gmp.takeover" (Sim.trace sim) >= 1)

let test_partition_and_remerge () =
  let sim, net, node = cluster ~n:5 () in
  let names = List.init 5 (fun i -> Printf.sprintf "compsun%d" (i + 1)) in
  start_all sim node names ~stagger:(Vtime.sec 1);
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 60) (fun () ->
         Network.partition net
           [ [ "compsun1"; "compsun2"; "compsun3" ]; [ "compsun4"; "compsun5" ] ]));
  Sim.run ~until:(Vtime.sec 150) sim;
  Alcotest.(check (list int)) "majority group" [ 1; 2; 3 ]
    (members_of (node "compsun1"));
  Alcotest.(check (list int)) "minority group" [ 4; 5 ]
    (members_of (node "compsun4"));
  Alcotest.(check int) "minority leader" 4 (Gmd.view (node "compsun4").gmd).Gmd.leader;
  (* heal: one group again *)
  Network.heal net;
  Sim.run ~until:(Vtime.sec 300) sim;
  List.iter
    (fun name ->
      Alcotest.(check (list int)) (name ^ " merged") [ 1; 2; 3; 4; 5 ]
        (members_of (node name)))
    names

let test_suspend_resume_like_timeout () =
  let sim, _net, node = cluster ~n:3 () in
  start_all sim node [ "compsun1"; "compsun2"; "compsun3" ] ~stagger:(Vtime.sec 1);
  ignore (Sim.schedule sim ~delay:(Vtime.sec 60) (fun () -> Gmd.suspend (node "compsun3").gmd));
  ignore (Sim.schedule sim ~delay:(Vtime.sec 90) (fun () -> Gmd.resume (node "compsun3").gmd));
  Sim.run ~until:(Vtime.sec 200) sim;
  (* with the fix, the suspended daemon rejoins after resuming *)
  Alcotest.(check (list int)) "suspended node rejoined" [ 1; 2; 3 ]
    (members_of (node "compsun3"))

(* --- bug reproductions ------------------------------------------- *)

let buggy base = { base with Gmd.bugs = Gmd.all_bugs }

let test_self_death_bug () =
  (* drop compsun3's heartbeats to itself: the buggy daemon announces
     its own death, stays in the group marked down, and breaks
     proclaim forwarding *)
  let config = buggy Gmd.default_config in
  let sim, _net, node = cluster ~n:3 ~config () in
  start_all sim node [ "compsun1"; "compsun2"; "compsun3" ] ~stagger:(Vtime.sec 1);
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 40) (fun () ->
         Pfi_layer.set_send_filter (node "compsun3").pfi
           {|
if {[msg_type cur_msg] == "HEARTBEAT" && [msg_attr cur_msg net.dst] == "compsun3"} {
  xDrop cur_msg
}
|}));
  Sim.run ~until:(Vtime.sec 120) sim;
  let gn = node "compsun3" in
  Alcotest.(check bool) "self-dead event traced" true
    (Trace.count ~node:"compsun3" ~tag:"gmp.self-dead" (Sim.trace sim) >= 1);
  Alcotest.(check bool) "marked down, not singleton" true (Gmd.self_marked_down gn.gmd);
  Alcotest.(check bool) "stayed in old group (bug)" true
    (List.length (members_of gn) > 1)

let test_self_death_fixed () =
  let sim, _net, node = cluster ~n:3 () in
  start_all sim node [ "compsun1"; "compsun2"; "compsun3" ] ~stagger:(Vtime.sec 1);
  let installed = ref false in
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 40) (fun () ->
         installed := true;
         Pfi_layer.set_send_filter (node "compsun3").pfi
           {|
if {[msg_type cur_msg] == "HEARTBEAT" && [msg_attr cur_msg net.dst] == "compsun3"} {
  xDrop cur_msg
}
|}));
  Sim.run ~until:(Vtime.sec 120) sim;
  ignore !installed;
  let gn = node "compsun3" in
  Alcotest.(check bool) "no buggy self-dead state" false (Gmd.self_marked_down gn.gmd);
  Alcotest.(check bool) "formed singleton at some point" true
    (Trace.count ~node:"compsun3" ~tag:"gmp.singleton" (Sim.trace sim) >= 2)

let test_proclaim_forwarding_bug_loops () =
  let config = { Gmd.default_config with Gmd.bugs = { Gmd.no_bugs with Gmd.proclaim_reply_to_sender = true } } in
  let sim, _net, node = cluster ~n:3 ~config () in
  (* form a group of 1 and 2 first; compsun3 arrives later and its
     proclaims to the leader are dropped, so only the crown prince
     forwards them *)
  start_all sim node [ "compsun1"; "compsun2" ] ~stagger:(Vtime.sec 1);
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 30) (fun () ->
         Pfi_layer.set_send_filter (node "compsun3").pfi
           {|
if {[msg_type cur_msg] == "PROCLAIM" && [msg_attr cur_msg net.dst] == "compsun1"} {
  xDrop cur_msg
}
|};
         Gmd.start (node "compsun3").gmd));
  Sim.run ~until:(Vtime.sec 45) sim;
  (* the vicious cycle: forwarder and leader bounce proclaims *)
  let forwards = Trace.count ~node:"compsun2" ~tag:"gmp.proclaim-fwd" (Sim.trace sim) in
  Alcotest.(check bool) "proclaim loop detected" true (forwards > 20);
  Alcotest.(check bool) "compsun3 never admitted" true
    (not (List.mem 3 (members_of (node "compsun1"))))

let test_proclaim_forwarding_fixed () =
  let sim, _net, node = cluster ~n:3 () in
  start_all sim node [ "compsun1"; "compsun2" ] ~stagger:(Vtime.sec 1);
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 30) (fun () ->
         Pfi_layer.set_send_filter (node "compsun3").pfi
           {|
if {[msg_type cur_msg] == "PROCLAIM" && [msg_attr cur_msg net.dst] == "compsun1"} {
  xDrop cur_msg
}
|};
         Gmd.start (node "compsun3").gmd));
  Sim.run ~until:(Vtime.sec 120) sim;
  Alcotest.(check (list int)) "admitted via forwarded proclaim" [ 1; 2; 3 ]
    (members_of (node "compsun1"));
  let forwards = Trace.count ~node:"compsun2" ~tag:"gmp.proclaim-fwd" (Sim.trace sim) in
  Alcotest.(check bool) "no loop" true (forwards < 20)

let timer_test_filter = {|
set t [msg_type cur_msg]
if {$t == "MEMBERSHIP_CHANGE"} {
  set mc_seen [expr {[bb_get mc2_seen 0] + 1}]
  bb_set mc2_seen $mc_seen
  if {$mc_seen >= 2} { bb_set dropping 1 }
}
if {[bb_get dropping 0] == 1 && ($t == "COMMIT" || $t == "HEARTBEAT")} {
  xDrop cur_msg
}
|}

let test_timer_unset_bug () =
  let config = { Gmd.default_config with Gmd.bugs = { Gmd.no_bugs with Gmd.timer_unset_inverted = true } } in
  let sim, _net, node = cluster ~n:3 ~config () in
  (* compsun2 joins one group; on the second membership change it drops
     COMMIT and heartbeats: with the bug, a heartbeat-expect timer fires
     while in transition *)
  Pfi_layer.set_receive_filter (node "compsun2").pfi timer_test_filter;
  start_all sim node [ "compsun1"; "compsun2" ] ~stagger:(Vtime.sec 1);
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 30) (fun () ->
         Gmd.start (node "compsun3").gmd));
  Sim.run ~until:(Vtime.sec 60) sim;
  Alcotest.(check bool) "spurious timeout in transition (bug)" true
    (Trace.count ~node:"compsun2" ~tag:"gmp.spurious-timeout" (Sim.trace sim) >= 1)

let test_timer_unset_fixed () =
  let sim, _net, node = cluster ~n:3 () in
  Pfi_layer.set_receive_filter (node "compsun2").pfi timer_test_filter;
  start_all sim node [ "compsun1"; "compsun2" ] ~stagger:(Vtime.sec 1);
  ignore
    (Sim.schedule sim ~delay:(Vtime.sec 30) (fun () ->
         Gmd.start (node "compsun3").gmd));
  Sim.run ~until:(Vtime.sec 60) sim;
  Alcotest.(check int) "no spurious timeouts" 0
    (Trace.count ~node:"compsun2" ~tag:"gmp.spurious-timeout" (Sim.trace sim))

let test_armed_timers_introspection () =
  let sim, _net, node = cluster ~n:2 () in
  start_all sim node [ "compsun1"; "compsun2" ] ~stagger:(Vtime.sec 1);
  Sim.run ~until:(Vtime.sec 30) sim;
  let timers = Gmd.armed_timers (node "compsun1").gmd in
  Alcotest.(check bool) "hb_send armed" true (List.mem "hb_send" timers);
  Alcotest.(check bool) "expect_2 armed" true (List.mem "expect_2" timers)

(* --- GMP stub ----------------------------------------------------- *)

let test_gmp_stub () =
  let m =
    Gmp_msg.make ~mtype:Gmp_msg.Commit ~origin:1 ~sender:1 ~group_id:7
      ~members:[ 1; 2 ] ()
  in
  let wire = Message.create (Rel_udp.wrap_raw (Gmp_msg.encode m)) in
  Alcotest.(check string) "type through rel header" "COMMIT"
    (Gmp_stub.stub.Stubs.msg_type wire);
  Alcotest.(check (option string)) "origin" (Some "1")
    (Gmp_stub.stub.Stubs.get_field wire "origin");
  Alcotest.(check (option string)) "members" (Some "1,2")
    (Gmp_stub.stub.Stubs.get_field wire "members")

let test_gmp_stub_generate () =
  match
    Gmp_stub.stub.Stubs.generate
      [ ("type", "PROCLAIM"); ("origin", "9"); ("sender", "9"); ("dst", "compsun1") ]
  with
  | Some msg ->
    Alcotest.(check string) "generated type" "PROCLAIM"
      (Gmp_stub.stub.Stubs.msg_type msg)
  | None -> Alcotest.fail "generate failed"

(* --- Wire pins ------------------------------------------------------ *)

let hex b =
  String.concat "" (List.init (Bytes.length b) (fun i -> Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

let all_mtypes =
  Gmp_msg.[ Heartbeat; Proclaim; Join; Membership_change; Mc_ack; Mc_nak; Commit; Dead ]

(* Captured from the Buffer-writer codec these encoders replaced: every
   type with 0, 1 and 3 members, a gid above 2^16, origin = index + 1,
   subject = index. *)
let gmp_wire_golden =
  [
    ("HEARTBEAT", 0, "0100011234002dc6c700000000");
    ("HEARTBEAT", 1, "0100011234002dc6c7000000010007");
    ("HEARTBEAT", 3, "0100011234002dc6c70000000300010002012c");
    ("PROCLAIM", 0, "0200021234002dc6c700010000");
    ("PROCLAIM", 1, "0200021234002dc6c7000100010007");
    ("PROCLAIM", 3, "0200021234002dc6c70001000300010002012c");
    ("JOIN", 0, "0300031234002dc6c700020000");
    ("JOIN", 1, "0300031234002dc6c7000200010007");
    ("JOIN", 3, "0300031234002dc6c70002000300010002012c");
    ("MEMBERSHIP_CHANGE", 0, "0400041234002dc6c700030000");
    ("MEMBERSHIP_CHANGE", 1, "0400041234002dc6c7000300010007");
    ("MEMBERSHIP_CHANGE", 3, "0400041234002dc6c70003000300010002012c");
    ("ACK", 0, "0500051234002dc6c700040000");
    ("ACK", 1, "0500051234002dc6c7000400010007");
    ("ACK", 3, "0500051234002dc6c70004000300010002012c");
    ("NAK", 0, "0600061234002dc6c700050000");
    ("NAK", 1, "0600061234002dc6c7000500010007");
    ("NAK", 3, "0600061234002dc6c70005000300010002012c");
    ("COMMIT", 0, "0700071234002dc6c700060000");
    ("COMMIT", 1, "0700071234002dc6c7000600010007");
    ("COMMIT", 3, "0700071234002dc6c70006000300010002012c");
    ("DEAD", 0, "0800081234002dc6c700070000");
    ("DEAD", 1, "0800081234002dc6c7000700010007");
    ("DEAD", 3, "0800081234002dc6c70007000300010002012c");
  ]

let test_gmp_wire_golden () =
  List.iteri
    (fun i mtype ->
      List.iter
        (fun members ->
          let m =
            Gmp_msg.make ~mtype ~origin:(i + 1) ~sender:0x1234 ~group_id:3_000_007 ~subject:i
              ~members ()
          in
          let name = Gmp_msg.mtype_to_string mtype in
          let count = List.length members in
          match List.find_opt (fun (n, c, _) -> n = name && c = count) gmp_wire_golden with
          | Some (_, _, want) ->
            Alcotest.(check string) (Printf.sprintf "%s/%d" name count) want
              (hex (Gmp_msg.encode m))
          | None -> Alcotest.failf "no golden for %s/%d" name count)
        [ []; [ 7 ]; [ 1; 2; 300 ] ])
    all_mtypes;
  Alcotest.(check string) "field maxima" "07ffffffffffffffffffff0002ffff0000"
    (hex
       (Gmp_msg.encode
          (Gmp_msg.make ~mtype:Gmp_msg.Commit ~origin:0xffff ~sender:0xffff
             ~group_id:0xffffffff ~subject:0xffff ~members:[ 0xffff; 0 ] ())))

let test_rel_wire_golden () =
  let inner =
    Gmp_msg.encode (Gmp_msg.make ~mtype:Gmp_msg.Proclaim ~origin:2 ~sender:3 ~group_id:2_000_001 ())
  in
  Alcotest.(check string) "raw" "0000000000fed50200020003001e848100000000"
    (hex (Rel_udp.wrap ~kind:Rel_udp.kind_raw ~seq:0 inner));
  Alcotest.(check string) "raw via wrap_raw" "0000000000fed50200020003001e848100000000" (hex (Rel_udp.wrap_raw inner));
  Alcotest.(check string) "data, seq >= 2^16" "0100011170ed630200020003001e848100000000"
    (hex (Rel_udp.wrap ~kind:Rel_udp.kind_data ~seq:70_000 inner));
  Alcotest.(check string) "ack" "0200011170ee8c"
    (hex (Rel_udp.wrap ~kind:Rel_udp.kind_ack ~seq:70_000 Bytes.empty));
  Alcotest.(check string) "checksum carries"
    "01ffffffffd826ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"
    (hex (Rel_udp.wrap ~kind:Rel_udp.kind_data ~seq:0xffffffff (Bytes.make 40 '\xff')))

(* --- One validation path ------------------------------------------ *)

(* The reader-based decoders the fixed-offset ones replaced, kept here
   as the reference the property below compares against. *)
let ref_unwrap data =
  if Bytes.length data < Rel_udp.header_size then None
  else begin
    let r = Bytes_codec.reader data in
    let kind = Bytes_codec.read_u8 r in
    let seq = Bytes_codec.read_u32_int r in
    let csum = Bytes_codec.read_u16 r in
    let payload = Bytes_codec.read_rest r in
    let sum = ref (kind + (seq land 0xffff) + ((seq lsr 16) land 0xffff)) in
    Bytes.iter (fun ch -> sum := !sum + Char.code ch) payload;
    while !sum lsr 16 <> 0 do
      sum := (!sum land 0xffff) + (!sum lsr 16)
    done;
    if lnot !sum land 0xffff <> csum then None else Some (kind, seq, payload)
  end

let ref_decode data =
  match
    let r = Bytes_codec.reader data in
    let code = Bytes_codec.read_u8 r in
    let origin = Bytes_codec.read_u16 r in
    let sender = Bytes_codec.read_u16 r in
    let group_id = Bytes_codec.read_u32_int r in
    let subject = Bytes_codec.read_u16 r in
    let count = Bytes_codec.read_u16 r in
    let members = List.init count (fun _ -> Bytes_codec.read_u16 r) in
    (code, origin, sender, group_id, subject, members)
  with
  | exception Bytes_codec.Truncated _ -> Error "gmp: truncated message"
  | code, origin, sender, group_id, subject, members ->
    (match Gmp_msg.mtype_of_code code with
     | None -> Error (Printf.sprintf "gmp: unknown message type %d" code)
     | Some mtype -> Ok { Gmp_msg.mtype; origin; sender; group_id; subject; members })

(* Every check one input must pass: the rel validators agree with the
   reference and with each other, the stub's classifier agrees with its
   full parse, and the inner decoder agrees with the reference. *)
let validators_agree data =
  let expect = ref_unwrap data in
  let header_ok =
    Rel_udp.inspect_header data
    = Option.map (fun (kind, seq, _) -> (kind, seq)) expect
  in
  let inspect_ok =
    Rel_udp.inspect data
    = Option.bind expect (fun (kind, seq, payload) ->
          if kind = Rel_udp.kind_raw then Some (`Raw, seq, payload)
          else if kind = Rel_udp.kind_data then Some (`Data, seq, payload)
          else if kind = Rel_udp.kind_ack then Some (`Ack, seq, payload)
          else None)
  in
  let msg = Message.create data in
  let stub = Gmp_stub.stub in
  let ty = stub.Stubs.msg_type msg in
  let fields = stub.Stubs.fields msg in
  let parsed = stub.Stubs.describe msg <> "undecodable GMP packet" in
  let stub_ok =
    (ty = "?") = (fields = []) && (ty = "?") = not parsed
    && (ty = "?" || List.assoc_opt "type" fields = Some ty)
  in
  let decode_ok inner = Gmp_msg.decode inner = ref_decode inner in
  header_ok && inspect_ok && stub_ok
  && decode_ok data
  && (match expect with Some (_, _, inner) -> decode_ok inner | None -> true)

(* [data] itself, every truncation of it, and every single-byte flip
   (all bits, plus the per-position mask from [masks]) *)
let mutants data masks =
  let n = Bytes.length data in
  let flip i mask =
    let b = Bytes.copy data in
    Bytes.set_uint8 b i (Bytes.get_uint8 b i lxor mask);
    b
  in
  (data :: List.init n (fun len -> Bytes.sub data 0 len))
  @ List.init n (fun i -> flip i 0xff)
  @ List.init n (fun i -> flip i (List.nth masks (i mod List.length masks)))

let prop_validators_agree =
  let gen =
    QCheck.make
      ~print:(fun (kind, seq, inner, _, noise) ->
        Printf.sprintf "kind=%d seq=%d inner=%s noise=%s" kind seq (hex inner) (hex noise))
      QCheck.Gen.(
        oneofl all_mtypes >>= fun mtype ->
        int_bound 65535 >>= fun origin ->
        int_bound 0xffffffff >>= fun gid ->
        list_size (int_bound 4) (int_bound 65535) >>= fun members ->
        oneofl [ Rel_udp.kind_raw; Rel_udp.kind_data; Rel_udp.kind_ack; 3 ] >>= fun kind ->
        int_bound 0xffffffff >>= fun seq ->
        list_size (return 8) (int_range 1 254) >>= fun masks ->
        string_size (int_bound 40) >>= fun noise ->
        let m = Gmp_msg.make ~mtype ~origin ~sender:origin ~group_id:gid ~members () in
        return (kind, seq, Gmp_msg.encode m, masks, Bytes.of_string noise))
  in
  (* mutating the whole packet exercises the rel checks; wrapping each
     mutant of the inner message under a valid header exercises the GMP
     ones behind them *)
  QCheck.Test.make ~name:"rel and gmp validators agree on random and mutated packets"
    ~count:200 gen (fun (kind, seq, inner, masks, noise) ->
      let rewrap = Rel_udp.wrap ~kind ~seq in
      validators_agree noise
      && validators_agree (rewrap noise)
      && List.for_all validators_agree (mutants (rewrap inner) masks)
      && List.for_all (fun m -> validators_agree (rewrap m)) (mutants inner masks))

(* --- Out-of-range field values ------------------------------------ *)

let test_gmp_stub_rejects_out_of_range () =
  let stub = Gmp_stub.stub in
  let wire () =
    Message.create
      (Rel_udp.wrap_raw
         (Gmp_msg.encode
            (Gmp_msg.make ~mtype:Gmp_msg.Proclaim ~origin:1 ~sender:1 ~group_id:7 ())))
  in
  List.iter
    (fun (field, value) ->
      let msg = wire () in
      let before = Bytes.copy (Message.payload msg) in
      Alcotest.(check bool) (Printf.sprintf "set %s %s refused" field value) false
        (stub.Stubs.set_field msg field value);
      Alcotest.(check string) (field ^ " payload untouched") (hex before) (hex (Message.payload msg));
      Alcotest.(check bool) (Printf.sprintf "msg_gen %s %s refused" field value) true
        (stub.Stubs.generate [ ("type", "PROCLAIM"); (field, value) ] = None))
    [ ("origin", "70000"); ("origin", "65536"); ("sender", "-1"); ("subject", "65536");
      ("gid", "4294967297"); ("gid", "-1") ];
  Alcotest.(check bool) "msg_gen member 65536 refused" true
    (stub.Stubs.generate [ ("type", "JOIN"); ("members", "1,65536") ] = None);
  let msg = wire () in
  Alcotest.(check bool) "u16 maximum accepted" true (stub.Stubs.set_field msg "origin" "65535");
  Alcotest.(check (option string)) "reads back unwrapped" (Some "65535")
    (stub.Stubs.get_field msg "origin");
  Alcotest.(check bool) "u32 maximum accepted" true (stub.Stubs.set_field msg "gid" "4294967295");
  Alcotest.(check (option string)) "gid reads back" (Some "4294967295")
    (stub.Stubs.get_field msg "gid")

let suite =
  [
    Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
    QCheck_alcotest.to_alcotest prop_codec_roundtrip;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "rel basic" `Quick test_rel_basic;
    Alcotest.test_case "rel retransmits" `Quick test_rel_retransmits_through_loss;
    Alcotest.test_case "rel dedups" `Quick test_rel_dedups;
    Alcotest.test_case "rel gives up" `Quick test_rel_gives_up;
    Alcotest.test_case "group formation" `Quick test_group_formation;
    Alcotest.test_case "views agree" `Quick test_views_agree_on_gid;
    Alcotest.test_case "crash detected" `Quick test_crash_detected;
    Alcotest.test_case "crown prince takeover" `Quick test_leader_crash_crown_prince;
    Alcotest.test_case "partition and remerge" `Quick test_partition_and_remerge;
    Alcotest.test_case "suspend/resume" `Quick test_suspend_resume_like_timeout;
    Alcotest.test_case "self-death bug" `Quick test_self_death_bug;
    Alcotest.test_case "self-death fixed" `Quick test_self_death_fixed;
    Alcotest.test_case "proclaim forwarding bug loops" `Quick test_proclaim_forwarding_bug_loops;
    Alcotest.test_case "proclaim forwarding fixed" `Quick test_proclaim_forwarding_fixed;
    Alcotest.test_case "timer unset bug" `Quick test_timer_unset_bug;
    Alcotest.test_case "timer unset fixed" `Quick test_timer_unset_fixed;
    Alcotest.test_case "armed timers introspection" `Quick test_armed_timers_introspection;
    Alcotest.test_case "gmp stub recognition" `Quick test_gmp_stub;
    Alcotest.test_case "gmp stub generation" `Quick test_gmp_stub_generate;
    Alcotest.test_case "gmp wire golden" `Quick test_gmp_wire_golden;
    Alcotest.test_case "rel wire golden" `Quick test_rel_wire_golden;
    QCheck_alcotest.to_alcotest prop_validators_agree;
    Alcotest.test_case "gmp stub rejects out-of-range values" `Quick
      test_gmp_stub_rejects_out_of_range;
  ]
