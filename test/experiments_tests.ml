(* Integration tests: every paper table/figure is regenerated and its
   headline findings are asserted — paper-vs-measured, mechanically. *)

open Pfi_experiments
open Pfi_testgen

(* --- Paper artifacts: named conformance-catalog checks -------------- *)

(* Every paper table, Figure 4, Experiment 5 and the ablations are rows
   of the conformance catalog, whose committed rendering
   (EXPERIMENTS_tcp.md) pins every measured value.  Each test below
   names the catalog rows and checks that carry one group of the
   paper's findings: the rows run, and each named check must exist and
   pass. *)
let row id =
  match Conformance.find id with
  | Some r -> r
  | None -> Alcotest.failf "no catalog row %s" id

let catalog_checks expected () =
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

(* The GMP tables are catalog rows over the Figure 5 testbed
   (Gmp_harness): a bug row and a fixed row where the paper has both. *)
let gmp_checks =
  [ ( "table5: self-death bug",
      [ ( "gmp-self-death/bug",
          [ "self-death announcements"; "state at the horizon";
            "proclaims lost in the broken forwarder" ] );
        ( "gmp-self-death/fixed",
          [ "self-death announcements"; "singleton formed after the fault";
            "state at the horizon" ] ) ] );
    ( "table5: kick/rejoin cycle",
      [ ( "gmp-kick-cycle/fixed",
          [ "times n3 was kicked out"; "times n3 was re-admitted" ] ) ] );
    ( "table5: ACK drop",
      [ ( "gmp-ack-drop/fixed",
          [ "n3 in a committed leader view";
            "join attempts ending in mc-timeout" ] ) ] );
    ( "table5: COMMIT drop",
      [ ( "gmp-commit-drop/fixed",
          [ "committed into the leader's view"; "times kicked out for silence";
            "n3 adopted a multi-member view";
            "MC-timer reversions to a singleton" ] ) ] );
    ( "table6: partition oscillation",
      [ ( "gmp-partition/fixed",
          [ "views of n1 and n4 during the split (155 s)";
            "views of n1 and n4 after the heal (255 s)";
            "views of n1 and n4 in the second split (355 s)" ] ) ] );
    ( "table6: leader/crown-prince",
      [ ( "gmp-separation/fixed",
          [ "leader's final group"; "crown prince's final group" ] ) ] );
    ( "table7: proclaim forwarding",
      [ ("gmp-proclaim/bug", [ "proclaim forwards by n2"; "originator admitted" ]);
        ( "gmp-proclaim/fixed",
          [ "proclaim forwards by n2"; "originator admitted" ] ) ] );
    ( "table8: timer test",
      [ ( "gmp-timer/bug",
          [ "timers armed entering IN_TRANSITION";
            "spurious expect-timer firings" ] );
        ( "gmp-timer/fixed",
          [ "timers armed entering IN_TRANSITION";
            "spurious expect-timer firings" ] ) ] ) ]

(* The GMP negative control: in each bug/fixed pair the named checks
   pass on their own row (asserted by the table test) and fail when
   that row's expectations are run against the other variant's trial. *)
let test_gmp_negative_control () =
  let fails_against (expect_id, labels) ~trial_of =
    let checks = Conformance.check_against (row expect_id) ~trial_of:(row trial_of) in
    List.iter
      (fun label ->
        match List.find_opt (fun c -> c.Conformance.ck_label = label) checks with
        | None -> Alcotest.failf "%s has no check %S" expect_id label
        | Some c ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s against %s (paper %s, measured %s)"
               expect_id label trial_of c.Conformance.ck_paper
               c.Conformance.ck_measured)
            false c.Conformance.ck_pass)
      labels
  in
  List.iter
    (fun (_, expected) ->
      match expected with
      | [ ((bug_id, _) as bug); ((fixed_id, _) as fixed) ] ->
        fails_against bug ~trial_of:fixed_id;
        fails_against fixed ~trial_of:bug_id
      | _ -> ())
    gmp_checks

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

(* a test's position is part of its printed id, so the table entries
   keep their places in the suite *)
let table name =
  Alcotest.test_case name `Slow
    (catalog_checks (List.assoc name (tcp_checks @ gmp_checks)))

let suite =
  [
    Alcotest.test_case "gmp bug/fixed rows discriminate" `Slow
      test_gmp_negative_control;
    Alcotest.test_case "engine macro-benchmark is deterministic" `Slow
      test_engine_bench_deterministic;
    table "table1: BSD vendors";
    table "table1: Solaris";
    table "table2: BSD adaptation (6.5/8/5 s)";
    table "table2: 8 s delays";
    table "table2: Solaris no adaptation";
    table "table2: global counter 6+3";
    table "figure4: backoff shape";
    table "table3: BSD keepalive";
    table "table3: Solaris keepalive";
    table "table3: ACKed keepalive repeats";
    table "table4: probe interval caps";
    table "table4: probing is indefinite";
    table "table4: two-day unplug";
    table "exp5: all vendors queue";
    table "table5: self-death bug";
    table "table5: kick/rejoin cycle";
    table "table5: ACK drop";
    table "table5: COMMIT drop";
    table "table6: partition oscillation";
    table "table6: leader/crown-prince";
    table "table7: proclaim forwarding";
    table "table8: timer test";
    table "ablation: Karn sampling";
    table "ablation: counter policy";
  ]
