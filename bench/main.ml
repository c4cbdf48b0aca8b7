(* Bechamel micro-benchmarks of the tool's own machinery, plus the
   campaign scaling and engine macro-benchmarks.  Paper artifacts are
   regenerated by `pfi_run run <artifact>`, not here.

   Usage:
     bench/main.exe [micro]      the micro-benchmarks
     bench/main.exe scaling      campaign trials/sec at --jobs 1/2/4/8
     bench/main.exe macro [OUT [SCENARIOS [MATRIX]]]
                                 engine macro-benchmark: every stock
                                 campaign at --jobs 1/2/4/8 plus the
                                 .pfis corpus; writes BENCH_engine.json
                                 (default OUT) and prints the table
     bench/main.exe compare BASELINE NEW
                                 regression gate: per-harness jobs=1
                                 trials/sec and alloc deltas between two
                                 macro-benchmark JSON files; exits 1 if
                                 any harness regressed more than 20% *)

open Pfi_experiments

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                   *)
(* ------------------------------------------------------------------ *)

open Bechamel
open Toolkit

(* per-message script filter evaluation — the cost the paper trades for
   not recompiling the tool between tests *)
let bench_script_filter () =
  let interp = Pfi_script.Script.create () in
  Pfi_script.Interp.register interp "msg_type" (fun _ _ -> "ACK");
  Pfi_script.Interp.register interp "xDrop" (fun _ _ -> "");
  let compiled =
    Pfi_script.Interp.compile
      {|
set t [msg_type cur_msg]
if {$t == "ACK"} { xDrop cur_msg }
|}
  in
  Staged.stage (fun () ->
      ignore (Pfi_script.Interp.eval_compiled interp compiled))

(* the same filter as a native OCaml closure (ablation: script vs native) *)
let bench_native_filter () =
  let msg = Pfi_stack.Message.of_string "A:payload" in
  let filter m =
    if Pfi_stack.Message.length m > 0 && Bytes.get (Pfi_stack.Message.payload m) 0 = 'A'
    then `Drop
    else `Pass
  in
  Staged.stage (fun () -> ignore (filter msg))

(* a full PFI layer traversal, with and without a script filter *)
let bench_pfi_traversal ~with_script () =
  let open Pfi_engine in
  let open Pfi_stack in
  let sim = Sim.create () in
  let pfi = Pfi_core.Pfi_layer.create ~sim ~node:"bench" () in
  if with_script then
    Pfi_core.Pfi_layer.set_send_filter pfi
      {|
if {![info exists n]} { set n 0 }
incr n
|};
  let sink =
    Layer.create ~name:"sink" ~node:"bench"
      { on_push = (fun _ _ -> ()); on_pop = (fun _ _ -> ()) }
  in
  Layer.link ~upper:(Pfi_core.Pfi_layer.layer pfi) ~lower:sink;
  let msg = Message.of_string "sixteen bytes..." in
  Staged.stage (fun () -> Layer.push (Pfi_core.Pfi_layer.layer pfi) msg)

let bench_event_queue () =
  let open Pfi_engine in
  let q = Event_queue.create () in
  let i = ref 0 in
  Staged.stage (fun () ->
      incr i;
      ignore (Event_queue.push q ~time:(Vtime.us (!i land 0xffff)) ());
      ignore (Event_queue.pop q))

let bench_tcp_codec () =
  let open Pfi_tcp in
  let seg =
    Segment.make
      ~payload:
        (Bytes.of_string
           "benchmark payload, sixty-four bytes of data to push through...")
      ~src_port:1234 ~dst_port:80 ~seq:123456 ~ack:654321
      ~flags:Segment.flag_ack ~window:4096 ()
  in
  Staged.stage (fun () ->
      match Segment.decode (Segment.encode seg) with
      | Ok _ -> ()
      | Error e -> failwith e)

(* the GMP message path's two codec halves, as the daemons and the
   reliable layer run them per message: encode + rel wrap on send, rel
   validation + payload copy + decode on receipt *)
let gmp_bench_msg =
  Pfi_gmp.Gmp_msg.make ~mtype:Pfi_gmp.Gmp_msg.Membership_change ~origin:1 ~sender:1
    ~group_id:1000001 ~members:[ 1; 2; 3; 4; 5 ] ()

let bench_gmp_send () =
  let open Pfi_gmp in
  Staged.stage (fun () ->
      ignore (Rel_udp.wrap ~kind:Rel_udp.kind_data ~seq:70_000 (Gmp_msg.encode gmp_bench_msg)))

let bench_gmp_receive () =
  let open Pfi_gmp in
  let wire = Rel_udp.wrap ~kind:Rel_udp.kind_data ~seq:70_000 (Gmp_msg.encode gmp_bench_msg) in
  Staged.stage (fun () ->
      match Rel_udp.inspect wire with
      | Some (_, _, inner) ->
        (match Gmp_msg.decode inner with Ok _ -> () | Error e -> failwith e)
      | None -> failwith "rel packet rejected")

let bench_expr () =
  let interp = Pfi_script.Script.create () in
  ignore (Pfi_script.Script.eval interp "set x 41");
  Staged.stage (fun () ->
      ignore (Pfi_script.Interp.eval_expr interp "$x * 2 + 1 > 80 && $x != 0"))

let bench_sim_events () =
  let open Pfi_engine in
  let sim = Sim.create () in
  Staged.stage (fun () ->
      for _ = 1 to 10 do
        ignore (Sim.schedule sim ~delay:(Vtime.us 1) (fun () -> ()))
      done;
      Sim.run sim)

(* a trace shaped like a real campaign log: a few nodes, a few dozen
   tags, 50k entries — the size where the indexed queries start paying *)
let bench_trace () =
  let open Pfi_engine in
  let trace = Trace.create () in
  for i = 0 to 49_999 do
    Trace.record trace ~time:(Vtime.us i)
      ~node:(Printf.sprintf "node%d" (i mod 4))
      ~tag:(Printf.sprintf "tag%d" (i mod 24))
      "detail"
  done;
  trace

(* indexed count/find via the per-(node, tag) offset buckets *)
let bench_trace_indexed () =
  let trace = bench_trace () in
  Staged.stage (fun () ->
      ignore (Pfi_engine.Trace.count ~node:"node1" ~tag:"tag13" trace);
      ignore (Pfi_engine.Trace.find ~node:"node1" ~tag:"tag13" trace))

(* the shrink machinery itself (no simulations): candidate-lattice
   enumeration for a compound fault, and a full greedy descent against a
   synthetic always-violating oracle — the fixed overhead `pfi_run
   shrink` pays on top of its trial re-runs *)
let shrink_start =
  let open Pfi_testgen in
  { Shrink.fault = Generator.Byzantine_mix 0.25;
    Shrink.side = Campaign.Both_filters;
    Shrink.horizon = Pfi_engine.Vtime.sec 120 }

let bench_shrink_candidates () =
  Staged.stage (fun () ->
      ignore (Pfi_testgen.Shrink.candidates ~spec:Pfi_testgen.Spec.abp shrink_start))

let bench_shrink_descent () =
  let open Pfi_testgen in
  let run (st : Shrink.state) =
    { Campaign.fault = st.Shrink.fault;
      Campaign.side = st.Shrink.side;
      Campaign.seed = 0L;
      Campaign.verdict = Campaign.Violation "synthetic";
      Campaign.injected_events = 0;
      Campaign.sim_events = 0;
      Campaign.trace = None }
  in
  Staged.stage (fun () ->
      ignore (Shrink.minimize ~spec:Spec.abp ~run shrink_start))

(* repro artifact encode+decode, the per-violation serialization cost *)
let bench_repro_roundtrip () =
  let open Pfi_testgen in
  let fault = Generator.Byzantine_mix 0.25 in
  let artifact =
    { Repro.version = Repro.current_version;
      Repro.harness = "abp-buggy";
      Repro.protocol = "abp";
      Repro.target = "bob";
      Repro.fault;
      Repro.side = Campaign.Both_filters;
      Repro.horizon = Pfi_engine.Vtime.sec 120;
      Repro.seed = 123456789L;
      Repro.campaign_seed = 31L;
      Repro.script = Generator.script_of_fault fault;
      Repro.verdict = Campaign.Violation "delivered 18/20 messages";
      Repro.injected_events = 39;
      Repro.shrink_trajectory = [] }
  in
  Staged.stage (fun () ->
      match Pfi_testgen.Repro.of_string (Pfi_testgen.Repro.to_json artifact) with
      | Ok _ -> ()
      | Error e -> failwith e)

let micro_tests () =
  [ Test.make ~name:"script filter eval (per message)" (bench_script_filter ());
    Test.make ~name:"native filter (per message)" (bench_native_filter ());
    Test.make ~name:"pfi traversal, script filter" (bench_pfi_traversal ~with_script:true ());
    Test.make ~name:"pfi traversal, no filter" (bench_pfi_traversal ~with_script:false ());
    Test.make ~name:"event queue push+pop" (bench_event_queue ());
    Test.make ~name:"tcp segment encode+decode" (bench_tcp_codec ());
    Test.make ~name:"gmp: encode + rel wrap" (bench_gmp_send ());
    Test.make ~name:"gmp: rel unwrap + decode" (bench_gmp_receive ());
    Test.make ~name:"expr evaluation" (bench_expr ());
    Test.make ~name:"simulator: 10 events scheduled+run" (bench_sim_events ());
    Test.make ~name:"trace query, indexed (50k entries)" (bench_trace_indexed ());
    Test.make ~name:"shrink: candidate enumeration" (bench_shrink_candidates ());
    Test.make ~name:"shrink: full descent, synthetic oracle" (bench_shrink_descent ());
    Test.make ~name:"repro artifact json encode+decode" (bench_repro_roundtrip ()) ]

let run_micro () =
  print_endline "\n== micro-benchmarks (Bechamel, ns/run via OLS) ==";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instances = Instance.[ monotonic_clock ] in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg instances elt in
          let est = Analyze.one ols Instance.monotonic_clock raw in
          match Analyze.OLS.estimates est with
          | Some [ ns ] ->
            Printf.printf "  %-42s %12.1f ns/run\n%!" (Test.Elt.name elt) ns
          | _ -> Printf.printf "  %-42s (no estimate)\n%!" (Test.Elt.name elt))
        (Test.elements test))
    (micro_tests ())

(* ------------------------------------------------------------------ *)
(* Parallel-executor scaling                                           *)
(* ------------------------------------------------------------------ *)

(* wall-clock trials/sec of the abp-buggy campaign under the domain
   executor at increasing worker counts.  The campaign is the same
   deterministic workload at every width (same seed, same plan, same
   byte output), so the only variable is the executor.  Speedups only
   materialise with real cores: on a 1-CPU host every width runs at
   sequential speed minus a little pool overhead. *)
let run_scaling () =
  let open Pfi_testgen in
  Printf.printf
    "\n== campaign scaling (abp-buggy, domain executor; %d core(s)) ==\n%!"
    (Domain.recommended_domain_count ());
  let (module H : Harness_intf.HARNESS) =
    Option.get (Registry.find "abp-buggy")
  in
  let plan = Campaign.plan (module H : Harness_intf.HARNESS) in
  let trials = List.length plan.Campaign.p_trials in
  let time_at jobs =
    let executor = Executor.of_jobs jobs in
    let t0 = Unix.gettimeofday () in
    let outcomes = (Campaign.run ~executor plan).Campaign.s_outcomes in
    let dt = Unix.gettimeofday () -. t0 in
    assert (List.length outcomes = trials);
    (dt, Campaign.table outcomes)
  in
  (* warm-up run so allocation effects don't bias jobs=1 *)
  ignore (time_at 1);
  let base, base_summary = time_at 1 in
  Printf.printf "  jobs=1  %6.2f s  %7.1f trials/sec  (baseline)\n%!" base
    (float_of_int trials /. base);
  List.iter
    (fun jobs ->
      let dt, summary = time_at jobs in
      if not (String.equal summary base_summary) then
        failwith
          (Printf.sprintf "jobs=%d summary diverged from jobs=1" jobs);
      Printf.printf "  jobs=%-2d %6.2f s  %7.1f trials/sec  (%.2fx)\n%!" jobs
        dt
        (float_of_int trials /. dt)
        (base /. dt))
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Engine macro-benchmark                                              *)
(* ------------------------------------------------------------------ *)

let run_macro args =
  let out = match args with o :: _ -> o | [] -> "BENCH_engine.json" in
  let scenario_dir =
    match args with
    | _ :: d :: _ -> d
    | _ -> "test/scenarios"  (* the corpus, when run from the repo root *)
  in
  let matrix_spec =
    match args with
    | _ :: _ :: m :: _ -> m
    | _ -> "test/matrix/registry_demo.pfim"
  in
  let bench = Engine_bench.run ~scenario_dir ~matrix_spec () in
  Engine_bench.pp_summary Format.std_formatter bench;
  Format.pp_print_flush Format.std_formatter ();
  let oc = open_out out in
  output_string oc (Engine_bench.to_string bench);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" out

(* ------------------------------------------------------------------ *)
(* Regression gate                                                     *)
(* ------------------------------------------------------------------ *)

(* Compares two macro-benchmark JSON files (a committed baseline vs a
   fresh run) on the numbers that are stable enough to gate on: per-
   harness trials/sec at jobs=1 (parallel widths are scheduling- and
   host-dependent) and allocated words per trial.  CI fails the build
   when any harness loses more than [regression_threshold] of its
   baseline throughput. *)

let regression_threshold = 0.20

let run_compare baseline_file new_file =
  let module J = Pfi_testgen.Repro.Json in
  let load file =
    let ic = open_in_bin file in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    match J.parse s with
    | Ok j -> j
    | Error e -> failwith (Printf.sprintf "%s: parse error: %s" file e)
  in
  let campaigns j =
    match J.member "campaigns" j with
    | Some (J.List l) -> l
    | _ -> failwith "no campaigns array"
  in
  let harness c = Option.bind (J.member "harness" c) J.to_str in
  let tps1 c =
    Option.bind (J.member "trials_per_sec" c) (fun o ->
        Option.bind (J.member "1" o) J.to_float)
  in
  let alloc c = Option.bind (J.member "alloc_words_per_trial" c) J.to_float in
  let base = load baseline_file and fresh = load new_file in
  let fresh_by_name =
    List.filter_map
      (fun c -> Option.map (fun n -> (n, c)) (harness c))
      (campaigns fresh)
  in
  Printf.printf "== bench compare: %s -> %s (jobs=1) ==\n" baseline_file
    new_file;
  Printf.printf "%-12s %12s %12s %8s   %14s %14s %8s\n" "harness"
    "base tri/s" "new tri/s" "delta" "base w/tri" "new w/tri" "delta";
  let failures = ref [] in
  List.iter
    (fun bc ->
      match harness bc with
      | None -> ()
      | Some name ->
        (match (List.assoc_opt name fresh_by_name, tps1 bc) with
         | None, _ ->
           failures := Printf.sprintf "%s: missing from %s" name new_file
                       :: !failures
         | Some nc, Some base_tps ->
           let new_tps = Option.value (tps1 nc) ~default:0. in
           let delta =
             if base_tps > 0. then (new_tps -. base_tps) /. base_tps else 0.
           in
           let pct x = 100. *. x in
           let alloc_cell v =
             match v with Some a -> Printf.sprintf "%14.0f" a
             | None -> Printf.sprintf "%14s" "-"
           in
           let alloc_delta =
             match (alloc bc, alloc nc) with
             | Some a, Some b when a > 0. ->
               Printf.sprintf "%+7.1f%%" (pct ((b -. a) /. a))
             | _ -> "       -"
           in
           Printf.printf "%-12s %12.1f %12.1f %+7.1f%%   %s %s %s\n" name
             base_tps new_tps (pct delta)
             (alloc_cell (alloc bc))
             (alloc_cell (alloc nc))
             alloc_delta;
           if delta < -.regression_threshold then
             failures :=
               Printf.sprintf "%s: trials/sec regressed %.1f%% (limit %.0f%%)"
                 name (pct (-.delta))
                 (pct regression_threshold)
               :: !failures
         | Some _, None -> ()))
    (campaigns base);
  match List.rev !failures with
  | [] -> Printf.printf "compare: OK (threshold %.0f%%)\n"
            (100. *. regression_threshold)
  | fs ->
    List.iter (fun f -> Printf.printf "compare: FAIL: %s\n" f) fs;
    exit 1

(* ------------------------------------------------------------------ *)

let () =
  match Array.to_list Sys.argv with
  | [] | _ :: [] | _ :: [ "micro" ] -> run_micro ()
  | _ :: [ "scaling" ] -> run_scaling ()
  | _ :: "macro" :: args -> run_macro args
  | _ :: [ "compare"; baseline; fresh ] -> run_compare baseline fresh
  | _ :: "compare" :: _ ->
    prerr_endline "usage: bench/main.exe compare BASELINE NEW";
    exit 2
  | _ :: args ->
    Printf.eprintf
      "unknown arguments %s (try micro, scaling, macro or compare; paper \
       artifacts: pfi_run run)\n"
      (String.concat " " args);
    exit 2
