(* Integration tests: every paper table/figure is regenerated and its
   headline findings are asserted — paper-vs-measured, mechanically. *)

open Pfi_experiments
open Pfi_testgen

(* --- TCP artifacts: named conformance-catalog checks ---------------- *)

(* The TCP tables, Figure 4, Experiment 5 and the ablations are rows of
   the conformance catalog, whose committed rendering
   (EXPERIMENTS_tcp.md) pins every measured value.  Each test below
   names the catalog rows and checks that carry one group of the
   paper's findings: the rows run, and each named check must exist and
   pass. *)
let catalog_checks expected () =
  let row id =
    match Conformance.find id with
    | Some r -> r
    | None -> Alcotest.failf "no catalog row %s" id
  in
  let rep = Conformance.run (List.map (fun (id, _) -> row id) expected) in
  List.iter2
    (fun (id, labels) (res : Conformance.result) ->
      List.iter
        (fun label ->
          match
            List.find_opt
              (fun c -> c.Conformance.ck_label = label)
              res.Conformance.res_checks
          with
          | None -> Alcotest.failf "%s has no check %S" id label
          | Some c ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %s (paper %s, measured %s)" id label
                 c.Conformance.ck_paper c.Conformance.ck_measured)
              true c.Conformance.ck_pass)
        labels)
    expected rep.Conformance.rep_results

let bsd = [ "sunos-4.1.3"; "aix-3.2.3"; "next-mach" ]
let vendors = bsd @ [ "solaris-2.3" ]

let rows section slugs labels =
  List.map (fun slug -> (section ^ "/" ^ slug, labels)) slugs

let tcp_checks =
  [ ( "table1: BSD vendors",
      rows "rexmt" bsd
        [ "retransmissions before giving up"; "backoff trend";
          "backoff ceiling"; "failure action" ] );
    ( "table1: Solaris",
      rows "rexmt" [ "solaris-2.3" ]
        [ "retransmissions before giving up"; "failure action";
          "backoff trend"; "close reason" ] );
    ( "table2: BSD adaptation (6.5/8/5 s)",
      rows "rto-delay-3s" bsd [ "first retransmission" ] );
    ("table2: 8 s delays", rows "rto-delay-8s" bsd [ "first retransmission" ]);
    ( "table2: Solaris no adaptation",
      rows "rto-delay-3s" [ "solaris-2.3" ]
        [ "first retransmission"; "failure action";
          "retransmissions before giving up" ]
      @ rows "rto-delay-8s" [ "solaris-2.3" ] [ "first retransmission" ] );
    ( "table2: global counter 6+3",
      rows "counter-probe" [ "solaris-2.3" ]
        [ "m1 retransmissions before its ACK arrived";
          "m2 retransmissions before the connection dropped" ] );
    ( "figure4: backoff shape",
      rows "rexmt" vendors [ "backoff trend" ]
      @ rows "rto-delay-3s" vendors [ "backoff series (Figure 4)" ]
      @ rows "rto-delay-8s" vendors [ "backoff series (Figure 4)" ] );
    ( "table3: BSD keepalive",
      rows "keepalive" [ "sunos-4.1.3" ]
        [ "idle before first probe"; "probes before giving up";
          "probe schedule"; "failure action" ] );
    ( "table3: Solaris keepalive",
      rows "keepalive" [ "solaris-2.3" ]
        [ "idle before first probe"; "probes before giving up";
          "failure action"; "probe schedule" ] );
    ( "table3: ACKed keepalive repeats",
      rows "keepalive-acked" [ "sunos-4.1.3" ]
        [ "probes answered"; "connection"; "idle before each probe" ] );
    ( "table4: probe interval caps",
      rows "zerowin" [ "sunos-4.1.3"; "solaris-2.3" ]
        [ "probe-interval ceiling" ] );
    ( "table4: probing is indefinite",
      rows "zerowin-dropped" [ "sunos-4.1.3" ]
        [ "persist probes observed"; "gives up?" ] );
    ( "table4: two-day unplug",
      rows "zerowin-outage" [ "sunos-4.1.3" ]
        [ "probes delivered within 10 min of reconnection";
          "connection after the outage" ] );
    ( "exp5: all vendors queue",
      rows "reorder" vendors [ "segment overtaken in flight"; "stream delivered" ]
    );
    ( "ablation: Karn sampling",
      rows "ablation-karn" [ "karn-on"; "karn-off" ]
        [ "srtt at the last retransmission" ] );
    ( "ablation: counter policy",
      rows "ablation-counter" [ "global-counter"; "per-segment-counter" ]
        [ "m2 retransmissions before the connection dropped" ] ) ]

(* --- Table 5 ------------------------------------------------------- *)

let test_table5_self_death () =
  let bug = Gmp_experiments.self_heartbeat_drop ~bugs:true in
  Alcotest.(check bool) "declared itself dead" true (bug.Gmp_experiments.self_dead_events >= 1);
  Alcotest.(check bool) "stuck in old group marked down" true
    bug.Gmp_experiments.marked_down_not_singleton;
  Alcotest.(check bool) "forwarding silently broken" true
    (bug.Gmp_experiments.forwarding_drops >= 1);
  let fixed = Gmp_experiments.self_heartbeat_drop ~bugs:false in
  Alcotest.(check bool) "fixed: singleton formed" true fixed.Gmp_experiments.formed_singleton;
  Alcotest.(check bool) "fixed: no broken state" false
    fixed.Gmp_experiments.marked_down_not_singleton

let test_table5_kick_cycle () =
  let m = Gmp_experiments.other_heartbeat_drop () in
  Alcotest.(check bool) "kicked repeatedly" true (m.Gmp_experiments.kicked >= 2);
  Alcotest.(check bool) "readmitted repeatedly" true (m.Gmp_experiments.readmitted >= 2)

let test_table5_ack_drop () =
  let m = Gmp_experiments.mc_ack_drop () in
  Alcotest.(check bool) "never admitted" false m.Gmp_experiments.ever_admitted;
  Alcotest.(check bool) "kept trying" true (m.Gmp_experiments.join_attempts >= 2)

let test_table5_commit_drop () =
  let m = Gmp_experiments.commit_drop () in
  Alcotest.(check bool) "others committed it" true
    m.Gmp_experiments.briefly_committed_by_others;
  Alcotest.(check bool) "kicked for silence" true m.Gmp_experiments.kicked_after_silence;
  Alcotest.(check bool) "victim cycles in transition" true
    m.Gmp_experiments.victim_stuck_then_cycled

(* --- Table 6 ------------------------------------------------------- *)

let test_table6_partition () =
  let m = Gmp_experiments.partition_oscillation () in
  Alcotest.(check bool) "disjoint groups during split" true m.Gmp_experiments.split_views_ok;
  Alcotest.(check bool) "merged after heal" true m.Gmp_experiments.merged_after_heal;
  Alcotest.(check bool) "cycle repeats" true m.Gmp_experiments.second_split_ok

let test_table6_separation () =
  let m = Gmp_experiments.leader_crown_prince_separation () in
  Alcotest.(check (list int)) "leader group excludes crown prince" [ 1; 3; 4; 5 ]
    m.Gmp_experiments.final_leader_group;
  Alcotest.(check bool) "crown prince isolated" true
    m.Gmp_experiments.crown_prince_isolated

(* --- Table 7 ------------------------------------------------------- *)

let test_table7 () =
  let bug = Gmp_experiments.proclaim_forwarding ~bugs:true in
  Alcotest.(check bool) "loop detected" true bug.Gmp_experiments.loop_detected;
  Alcotest.(check bool) "never admitted under the bug" false
    bug.Gmp_experiments.originator_admitted;
  let fixed = Gmp_experiments.proclaim_forwarding ~bugs:false in
  Alcotest.(check bool) "no loop after fix" false fixed.Gmp_experiments.loop_detected;
  Alcotest.(check bool) "admitted after fix" true
    fixed.Gmp_experiments.originator_admitted

(* --- Table 8 ------------------------------------------------------- *)

let test_table8 () =
  let bug = Gmp_experiments.timer_test ~bugs:true in
  Alcotest.(check bool) "spurious timeout under the bug" true
    (bug.Gmp_experiments.spurious_timeouts >= 1);
  Alcotest.(check bool) "extra timers armed in transition" true
    (List.exists
       (fun name -> String.length name > 7 && String.sub name 0 7 = "expect_")
       bug.Gmp_experiments.timers_seen_in_transition);
  let fixed = Gmp_experiments.timer_test ~bugs:false in
  Alcotest.(check int) "no spurious timeouts after fix" 0
    fixed.Gmp_experiments.spurious_timeouts;
  Alcotest.(check (list string)) "only the MC timer armed" [ "mc_wait" ]
    fixed.Gmp_experiments.timers_seen_in_transition

(* --- JSON rendering ------------------------------------------------ *)

let test_report_to_json () =
  let table =
    Report.make ~id:"Table 0" ~title:{|quote " and \ slash|}
      ~header:[ "a"; "b" ]
      ~notes:[ "note
with newline" ]
      [ [ "r1c1"; "r1c2" ]; [ "r2c1"; "r2c2" ] ]
  in
  Alcotest.(check string) "escaped, self-contained object"
    ({|{"id":"Table 0","title":"quote \" and \\ slash","header":["a","b"],|}
    ^ {|"rows":[["r1c1","r1c2"],["r2c1","r2c2"]],"notes":["note\nwith newline"]}|})
    (Report.to_json table)

(* the engine macro-benchmark is a pure function of seeds and code once
   wall-clock fields are stripped: two runs must serialise identically,
   and the verdict digests must not depend on the worker count (checked
   internally by Engine_bench.run, re-asserted here across runs) *)
let test_engine_bench_deterministic () =
  (* dune runs the suite from test/; tolerate a repo-root cwd too *)
  let scenario_dir =
    if Sys.file_exists "scenarios" then "scenarios" else "test/scenarios"
  in
  let matrix_spec =
    if Sys.file_exists "matrix/tiny.pfim" then "matrix/tiny.pfim"
    else "test/matrix/tiny.pfim"
  in
  let run () =
    Engine_bench.run ~jobs:[ 1; 2 ] ~harnesses:[ "abp"; "abp-buggy" ]
      ~scenario_dir ~matrix_spec ()
  in
  let a = run () and b = run () in
  Alcotest.(check string) "identical JSON modulo timing fields"
    (Engine_bench.to_string ~include_timing:false a)
    (Engine_bench.to_string ~include_timing:false b);
  Alcotest.(check bool) "scenario corpus was found and ran" true
    (match a.Engine_bench.b_scenarios with
     | Some sb -> sb.Engine_bench.sb_count > 0
     | None -> false);
  Alcotest.(check bool) "matrix expansion was benchmarked" true
    (match a.Engine_bench.b_gen with
     | Some gb -> gb.Engine_bench.gb_count > 0
     | None -> false);
  (* the timing-included document is still valid JSON *)
  (match Pfi_testgen.Repro.Json.parse (Engine_bench.to_string a) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "BENCH_engine.json does not parse: %s" e)

(* a test's position is part of its printed id, so the TCP entries
   keep their places in the suite *)
let tcp name =
  Alcotest.test_case name `Slow (catalog_checks (List.assoc name tcp_checks))

let suite =
  [
    Alcotest.test_case "report to_json" `Quick test_report_to_json;
    Alcotest.test_case "engine macro-benchmark is deterministic" `Slow
      test_engine_bench_deterministic;
    tcp "table1: BSD vendors";
    tcp "table1: Solaris";
    tcp "table2: BSD adaptation (6.5/8/5 s)";
    tcp "table2: 8 s delays";
    tcp "table2: Solaris no adaptation";
    tcp "table2: global counter 6+3";
    tcp "figure4: backoff shape";
    tcp "table3: BSD keepalive";
    tcp "table3: Solaris keepalive";
    tcp "table3: ACKed keepalive repeats";
    tcp "table4: probe interval caps";
    tcp "table4: probing is indefinite";
    tcp "table4: two-day unplug";
    tcp "exp5: all vendors queue";
    Alcotest.test_case "table5: self-death bug" `Slow test_table5_self_death;
    Alcotest.test_case "table5: kick/rejoin cycle" `Slow test_table5_kick_cycle;
    Alcotest.test_case "table5: ACK drop" `Slow test_table5_ack_drop;
    Alcotest.test_case "table5: COMMIT drop" `Slow test_table5_commit_drop;
    Alcotest.test_case "table6: partition oscillation" `Slow test_table6_partition;
    Alcotest.test_case "table6: leader/crown-prince" `Slow test_table6_separation;
    Alcotest.test_case "table7: proclaim forwarding" `Slow test_table7;
    Alcotest.test_case "table8: timer test" `Slow test_table8;
    tcp "ablation: Karn sampling";
    tcp "ablation: counter policy";
  ]
