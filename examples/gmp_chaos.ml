(* GMP under faults: a five-daemon cluster is partitioned, heals,
   re-merges and then loses its leader.  Every fault is a PFI filter on
   the paper's Figure 5 testbed, and the membership timeline is read
   back from the trial's gmp.view trace entries.

   Run with:  dune exec examples/gmp_chaos.exe *)

open Pfi_engine
open Pfi_core
open Pfi_testgen

let side_a = [ "n1"; "n2"; "n3" ]
let side_b = [ "n4"; "n5" ]
let nodes = side_a @ side_b

(* while the blackboard flag is set, drop what crosses to the other side *)
let split_filter other_side =
  Printf.sprintf
    {|
if {[bb_get split 0] == 1} {
  if {[lsearch {%s} [msg_attr cur_msg net.dst]] >= 0} { xDrop cur_msg }
}
|}
    (String.concat " " other_side)

(* the arm hook gets n1's layer; every daemon's is its peer *)
let arm sim n1 =
  let layer = Pfi_layer.peer n1 in
  List.iter
    (fun node -> Pfi_layer.set_send_filter (layer node) (split_filter side_b))
    side_a;
  List.iter
    (fun node -> Pfi_layer.set_send_filter (layer node) (split_filter side_a))
    side_b;
  let at t f = ignore (Sim.schedule sim ~delay:(Vtime.sec t) f) in
  let bb = Pfi_layer.blackboard n1 in
  at 60 (fun () -> Blackboard.set bb "split" "1");
  at 160 (fun () -> Blackboard.set bb "split" "0");
  (* a crashed leader neither sends nor receives *)
  at 260 (fun () ->
      Pfi_layer.set_send_filter n1 "xDrop cur_msg";
      Pfi_layer.set_receive_filter n1 "xDrop cur_msg")

let members e =
  let d = Trace.detail e in
  match String.index_opt d '[' with
  | Some i -> String.sub d i (String.length d - i)
  | None -> d

let () =
  (* the filters all come from [arm]; the fault only labels the trial *)
  let outcome =
    Campaign.run_trial
      (Gmp_harness.harness ~n:5 ~heal:false ())
      ~side:Campaign.Send_filter ~horizon:(Vtime.sec 350) ~seed:1L
      ~capture_trace:true ~script:"" ~arm (Generator.Drop_all "HEARTBEAT")
  in
  let trace = Option.get outcome.Campaign.trace in
  let view_at node t =
    List.fold_left
      (fun acc e -> if Vtime.(e.Trace.time <= t) then members e else acc)
      "-"
      (Trace.find ~node ~tag:"gmp.view" trace)
  in
  List.iter
    (fun (t, label) ->
      Printf.printf "%-28s" (Printf.sprintf "[t=%3ds] %s" t label);
      List.iter
        (fun node -> Printf.printf " %s:%s" node (view_at node (Vtime.sec t)))
        nodes;
      print_newline ())
    [ (40, "formed"); (60, "partition {1,2,3}|{4,5}");
      (140, "after partition settles"); (160, "heal");
      (240, "after re-merge"); (260, "crash the leader");
      (340, "crown prince took over") ];
  print_newline ();
  print_endline "view history of n4 (every committed view, in order):";
  List.iter
    (fun e ->
      Printf.printf "  t=%-9s %s\n" (Vtime.to_string e.Trace.time)
        (Trace.detail e))
    (Trace.find ~node:"n4" ~tag:"gmp.view" trace)
