(* The vendor conformance matrix: golden reports over the two-row
   subset, jobs-width parity over the full catalog, the wrong-knob
   negative control, the committed EXPERIMENTS_tcp.md artifact, and a
   qcheck state-machine property that every tcp.state transition
   observed under random fault schedules stays inside the RFC 793
   relation. *)

open Pfi_engine
open Pfi_tcp
open Pfi_testgen

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let local path = Filename.concat (Filename.dirname Sys.executable_name) path

let check_golden ~path actual =
  let expected = read_file (local path) in
  if actual <> expected then
    Alcotest.failf
      "output differs from %s —\n--- expected ---\n%s\n--- actual ---\n%s" path
      expected actual

(* ------------------------------------------------------------------ *)
(* Catalog shape                                                      *)
(* ------------------------------------------------------------------ *)

let matrix_sections =
  [ "rexmt"; "counter"; "keepalive"; "zerowin"; "handshake"; "teardown" ]

let test_catalog_shape () =
  let rows = Conformance.catalog () in
  let in_section section =
    List.filter (fun r -> Conformance.row_section r = section) rows
  in
  Alcotest.(check int) "6 sections x 4 vendors" 24
    (List.length (List.concat_map in_section matrix_sections));
  (* the rest of the paper's experiments and the ablations *)
  List.iter
    (fun (section, n) ->
      Alcotest.(check int) (section ^ " rows") n
        (List.length (in_section section)))
    [ ("rto-delay-3s", 4); ("rto-delay-8s", 4); ("counter-probe", 4);
      ("keepalive-acked", 4); ("zerowin-dropped", 4); ("zerowin-outage", 1);
      ("reorder", 4); ("ablation-karn", 2); ("ablation-counter", 2);
      (* the GMP tables: bug and fixed rows where the paper has both *)
      ("gmp-self-death", 2); ("gmp-kick-cycle", 1); ("gmp-ack-drop", 1);
      ("gmp-commit-drop", 1); ("gmp-partition", 1); ("gmp-separation", 1);
      ("gmp-proclaim", 2); ("gmp-timer", 2) ];
  Alcotest.(check int) "no other rows" 64 (List.length rows);
  let ids = List.map Conformance.row_id rows in
  Alcotest.(check int)
    "row ids are unique" (List.length ids)
    (List.length (List.sort_uniq String.compare ids));
  List.iter
    (fun section ->
      Alcotest.(check int)
        (section ^ " covers every vendor")
        (List.length Profile.all_vendors)
        (List.length
           (List.filter
              (fun r -> Conformance.row_section r = section)
              rows)))
    matrix_sections;
  List.iter
    (fun r ->
      Alcotest.(check string)
        "row id is SECTION/VENDOR-SLUG"
        (Conformance.row_section r ^ "/" ^ Conformance.row_vendor r)
        (Conformance.row_id r))
    rows

(* ------------------------------------------------------------------ *)
(* Golden reports (two-row subset)                                    *)
(* ------------------------------------------------------------------ *)

let test_golden_reports () =
  let rep = Conformance.run (Conformance.golden_catalog ()) in
  Alcotest.(check int) "both golden rows pass" 2 (Conformance.passed rep);
  check_golden ~path:"golden/conformance_golden.md"
    (Conformance.to_markdown rep);
  check_golden ~path:"golden/conformance_golden.json"
    (Repro.Json.to_string (Conformance.to_json rep) ^ "\n")

let test_jobs_parity () =
  let rows = Conformance.catalog () in
  let seq = Conformance.run ~executor:Executor.sequential rows in
  let par = Conformance.run ~executor:(Executor.of_jobs 4) rows in
  Alcotest.(check string)
    "markdown is byte-identical at jobs 1 and 4"
    (Conformance.to_markdown seq) (Conformance.to_markdown par);
  Alcotest.(check string)
    "json is byte-identical at jobs 1 and 4"
    (Repro.Json.to_string (Conformance.to_json seq))
    (Repro.Json.to_string (Conformance.to_json par))

(* the committed artifact is exactly what `pfi_run matrix --report`
   regenerates at the default seed *)
let test_committed_artifact () =
  let rep = Conformance.run (Conformance.catalog ()) in
  Alcotest.(check int)
    "every catalog row re-discovers its quirk" (Conformance.total rep)
    (Conformance.passed rep);
  check_golden ~path:(Filename.concat ".." "EXPERIMENTS_tcp.md")
    (Conformance.to_markdown rep)

(* ------------------------------------------------------------------ *)
(* Negative control                                                   *)
(* ------------------------------------------------------------------ *)

(* running BSD rows against Solaris must fail exactly the
   vendor-discriminating checks, while the Solaris rows still pass —
   proof the oracles measure the stack, not the configuration *)
let test_negative_override () =
  let rexmt = [ "retransmissions before giving up"; "backoff ceiling";
                "failure action" ]
  and rto_delay = [ "first retransmission"; "retransmissions before giving up";
                    "failure action" ]
  and probe = [ "m2 retransmissions before the connection dropped";
                "failure action" ] in
  let expected =
    [ ("rexmt/sunos-4.1.3", rexmt); ("rexmt/solaris-2.3", []) ]
    @ List.concat_map
        (fun section ->
          List.map
            (fun slug -> (section ^ "/" ^ slug, rto_delay))
            [ "sunos-4.1.3"; "aix-3.2.3"; "next-mach" ]
          @ [ (section ^ "/solaris-2.3", []) ])
        [ "rto-delay-3s"; "rto-delay-8s" ]
    @ [ ("counter-probe/sunos-4.1.3", probe);
        ("counter-probe/aix-3.2.3", probe);
        ("counter-probe/next-mach", probe);
        ("counter-probe/solaris-2.3", []) ]
  in
  let rows =
    List.map
      (fun (id, _) ->
        match Conformance.find id with
        | Some r -> r
        | None -> Alcotest.failf "no catalog row %s" id)
      expected
  in
  let rep = Conformance.run ~profile_override:"solaris-2.3" rows in
  List.iter2
    (fun (id, failing) (r : Conformance.result) ->
      Alcotest.(check bool)
        (id ^ (if failing = [] then " still passes" else " fails under Solaris"))
        (failing = []) r.Conformance.res_pass;
      Alcotest.(check (list string))
        (id ^ ": exactly the vendor-discriminating checks fail")
        failing
        (List.filter_map
           (fun c ->
             if c.Conformance.ck_pass then None
             else Some c.Conformance.ck_label)
           r.Conformance.res_checks))
    expected rep.Conformance.rep_results

let test_unknown_override () =
  Alcotest.check_raises "unknown profile is rejected"
    (Invalid_argument
       "Conformance.run: unknown vendor profile plan-9")
    (fun () ->
      ignore
        (Conformance.run ~profile_override:"plan-9"
           (Conformance.golden_catalog ())))

(* ------------------------------------------------------------------ *)
(* RFC 793 state-machine property                                     *)
(* ------------------------------------------------------------------ *)

(* the legal transition relation (CLOSED is reachable from any state
   via reset/abort/teardown, which RFC 793 draws as "delete TCB") *)
let allowed_transition =
  let t = Hashtbl.create 32 in
  List.iter
    (fun (a, bs) -> List.iter (fun b -> Hashtbl.replace t (a, b) ()) bs)
    [ ("LISTEN", [ "SYN_RCVD"; "SYN_SENT"; "CLOSED" ]);
      ("SYN_SENT", [ "ESTABLISHED"; "SYN_RCVD"; "CLOSED" ]);
      ("SYN_RCVD", [ "ESTABLISHED"; "FIN_WAIT_1"; "LISTEN"; "CLOSED" ]);
      ("ESTABLISHED", [ "FIN_WAIT_1"; "CLOSE_WAIT"; "CLOSED" ]);
      ("FIN_WAIT_1", [ "FIN_WAIT_2"; "CLOSING"; "TIME_WAIT"; "CLOSED" ]);
      ("FIN_WAIT_2", [ "TIME_WAIT"; "CLOSED" ]);
      ("CLOSING", [ "TIME_WAIT"; "CLOSED" ]);
      ("CLOSE_WAIT", [ "LAST_ACK"; "CLOSED" ]);
      ("LAST_ACK", [ "CLOSED" ]);
      ("TIME_WAIT", [ "CLOSED" ]) ];
  fun a b -> Hashtbl.mem t (a, b)

let fsm_faults =
  [| Generator.Drop_first ("SYN", 2);
     Generator.Drop_first ("DATA", 3);
     Generator.Drop_nth ("ACK", 3);
     Generator.Duplicate "FIN";
     Generator.Duplicate "DATA";
     Generator.Delay_each ("ACK", 0.5);
     Generator.Reorder "DATA";
     Generator.Drop_all "FIN";
     Generator.Omission_all 0.2;
     Generator.Byzantine_mix 0.1 |]

let fsm_phases = [| Tcp_harness.Handshake; Tcp_harness.Stream; Tcp_harness.Close |]

let fsm_sides =
  [| Campaign.Send_filter; Campaign.Receive_filter; Campaign.Both_filters |]

let prop_fsm_transitions =
  let gen =
    QCheck.Gen.(
      pair
        (quad
           (int_bound (List.length Profile.all_vendors - 1))
           (int_bound (Array.length fsm_phases - 1))
           (int_bound (Array.length fsm_faults - 1))
           (int_bound (Array.length fsm_sides - 1)))
        (int_bound 999))
  in
  let print ((v, p, f, s), seed) =
    Printf.sprintf "vendor=%d phase=%d fault=%d side=%d seed=%d" v p f s seed
  in
  QCheck.Test.make
    ~name:"every tcp.state transition under random faults is in RFC 793"
    ~count:60
    (QCheck.make ~print gen)
    (fun ((v, p, f, s), seed) ->
      let profile = List.nth Profile.all_vendors v in
      let harness =
        Tcp_harness.harness ~chunk_count:6 ~profile ~phase:fsm_phases.(p) ()
      in
      let outcome =
        Campaign.run_trial harness ~side:fsm_sides.(s)
          ~horizon:(Vtime.minutes 10)
          ~seed:(Int64.of_int (1000 + seed))
          ~capture_trace:true fsm_faults.(f)
      in
      let trace =
        match outcome.Campaign.trace with Some t -> t | None -> assert false
      in
      List.for_all
        (fun e ->
          (* detail is "port=N A -> B" *)
          match String.split_on_char ' ' (Trace.detail e) with
          | [ _port; a; "->"; b ] ->
            allowed_transition a b
            || QCheck.Test.fail_reportf
                 "illegal transition %s -> %s on %s (%s)" a b e.Trace.node
                 (Trace.detail e)
          | _ ->
            QCheck.Test.fail_reportf "unparseable tcp.state detail %S"
              (Trace.detail e))
        (Trace.find ~tag:"tcp.state" trace))

let suite =
  [ Alcotest.test_case "catalog covers 6 sections x 4 vendors" `Quick
      test_catalog_shape;
    Alcotest.test_case "golden subset matches committed reports" `Quick
      test_golden_reports;
    Alcotest.test_case "reports are jobs-invariant" `Slow test_jobs_parity;
    Alcotest.test_case "committed EXPERIMENTS_tcp.md matches regeneration"
      `Quick test_committed_artifact;
    Alcotest.test_case "profile override fails the mismatched rows" `Quick
      test_negative_override;
    Alcotest.test_case "unknown profile override is rejected" `Quick
      test_unknown_override;
    QCheck_alcotest.to_alcotest prop_fsm_transitions ]
