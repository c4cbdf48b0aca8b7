(* The fuzz workload: [Fuzz.run] on three harnesses at twelve
   consecutive seeds from the workload seed, each run with a fixed
   budget below the point where its mutation runs dry (the lowest seen
   over seeds 1-30 was 407 executions, on abp-buggy).  One fuzz run's
   cost per execution varies by about 18% (coefficient of variation)
   with what its seed finds; twelve seeds per pass keep that from
   dominating the run-to-run spread.  Every trace is kept, so
   the arena is off for the loop's executions: a gain that costs trace
   capture shows here. *)

open Pfi_engine
open Pfi_testgen
module J = Repro.Json

let harnesses = [ "abp-buggy"; "tcp"; "abp" ]
let seeds = 12
let budget = 150

(* (fuzz seed, harness) of every [Fuzz.run] in one pass *)
let runs seed =
  List.concat_map
    (fun i -> List.map (fun n -> (Int64.of_int (seed + i), n)) harnesses)
    (List.init seeds Fun.id)
let harness = Campaign_run.harness

(* Everything a run reports that must not depend on timing or width. *)
let fingerprint (r : Fuzz.result) =
  String.concat "\n"
    ((Printf.sprintf "execs=%d shrink=%d features=%d" r.r_execs r.r_shrink_execs
        r.r_features
     :: List.map Fuzz.canonical r.r_corpus)
    @ List.map
        (fun fd -> J.to_line (Fuzz.finding_json ~harness:r.r_harness fd))
        r.r_findings)

let execs (r : Fuzz.result) = r.r_execs + r.r_shrink_execs

(* Set-up: registry lookup, then [Fuzz.run] up to its first dispatched
   batch (seed corpus, scripts compiled, first plan built). *)
let set_up runs =
  List.fold_left
    (fun ns (seed, n) ->
      let h = harness n in
      let t0 = Clock.now_ns () in
      (try ignore (Fuzz.run ~executor:Timed_exec.stop_at_dispatch ~seed ~budget h)
       with Timed_exec.Dispatched -> ());
      ns + (Clock.now_ns () - t0))
    0 runs

let measure_setup runs =
  let samples =
    List.init Campaign_run.setup_reps (fun _ ->
        let t0 = Clock.now_ns () in
        let ns = set_up runs in
        (Clock.since_s t0, float_of_int ns *. 1e-6))
  in
  (Sample.median (List.map fst samples), Sample.median (List.map snd samples))

(* Simulator events of every sim created while [f] runs on this domain:
   each trial builds one sim and is over before the next is created. *)
let counting_events f =
  let total = ref 0 and last = ref None in
  let settle () = Option.iter (fun s -> total := !total + Sim.events s) !last in
  Sim.set_create_hook (Some (fun s -> settle (); last := Some s));
  Fun.protect
    ~finally:(fun () -> Sim.set_create_hook None)
    (fun () ->
      let r = f () in
      settle ();
      (r, !total))

(* One pass over [runs]; checked against [reference]'s fingerprints
   when given. *)
let run_pass tally ~what ?reference runs make_executor =
  List.mapi
    (fun i (seed, n) ->
      let h = harness n and executor = make_executor () in
      let w0 = Gc.minor_words () in
      let t0 = Clock.now_ns () in
      match Fuzz.run ~executor ~seed ~budget h with
      | r ->
        let wall = Clock.since_s t0 in
        let words = Gc.minor_words () -. w0 in
        Tally.attempt tally (execs r);
        (match reference with
         | Some refs when fingerprint (List.nth refs i) <> fingerprint r ->
           Tally.fail tally (execs r) "%s %s seed %Ld: fuzz result differs from the reference run"
             what n seed
         | _ -> ());
        (r, wall, words)
      | exception e ->
        Tally.attempt tally budget;
        Tally.fail tally budget "%s %s seed %Ld: fuzz raised %s" what n seed
          (Printexc.to_string e);
        ({ Fuzz.r_harness = n; r_seed = seed; r_budget = budget; r_execs = 0;
           r_shrink_execs = 0; r_features = 0; r_corpus = []; r_findings = [] },
         Clock.since_s t0, 0.))
    runs

(* Every minimized finding must replay through [Campaign.run_trial]. *)
let replay_findings tally (results : Fuzz.result list) =
  List.iter
    (fun (r : Fuzz.result) ->
      let h = harness r.r_harness in
      List.iter
        (fun (fd : Fuzz.finding) ->
          if fd.fd_minimized then begin
            Tally.attempt tally 1;
            match
              Campaign.run_trial h ~side:fd.fd_side ~horizon:fd.fd_horizon
                ~seed:fd.fd_seed fd.fd_fault
            with
            | o when o.verdict = Campaign.Violation fd.fd_reason -> ()
            | _ ->
              Tally.fail tally 1 "%s: finding %s does not replay" r.r_harness
                fd.fd_signature
            | exception e ->
              Tally.fail tally 1 "%s: replay of %s raised %s" r.r_harness
                fd.fd_signature (Printexc.to_string e)
          end)
        r.r_findings)
    results

(* A corpus input as the trial the fuzz loop ran for it, from the public
   pieces the loop uses: the faults' generated scripts in sequence, the
   seed derived from the input's key, and both filters cleared when the
   fault window closes. *)
let trial_of_input (r : Fuzz.result) (input : Fuzz.input) =
  let script =
    Pfi_script.Interp.compile
      (String.concat "\n" (List.map Generator.script_of_fault input.in_faults))
  in
  let arm =
    Option.map
      (fun at sim pfi ->
        ignore
          (Sim.schedule_at sim ~time:at (fun () ->
               Pfi_core.Pfi_layer.clear_send_filter pfi;
               Pfi_core.Pfi_layer.clear_receive_filter pfi)))
      input.in_clear
  in
  Campaign.trial ?arm ~script
    ~seed:
      (Campaign.trial_seed_of_key ~campaign_seed:r.r_seed ~side:input.in_side
         (Fuzz.input_key input))
    ~side:input.in_side (List.hd input.in_faults)

(* The corpus trials, each with its [run_trial] outcome (trace kept, as
   in the loop) for the phase replica to match. *)
let corpus_trials (results : Fuzz.result list) =
  List.concat_map
    (fun (r : Fuzz.result) ->
      let h = harness r.r_harness in
      let horizon = Harness_intf.default_horizon h in
      List.map
        (fun input ->
          let tr = trial_of_input r input in
          let o =
            Campaign.run_trial h ~side:tr.t_side ~horizon ~seed:tr.t_seed
              ~capture_trace:true ~compiled:tr.t_script ?arm:tr.t_arm tr.t_fault
          in
          (h, horizon, tr, o))
        r.r_corpus)
    results

let warm_up tally runs =
  let reference =
    List.map (fun (r, _, _) -> r)
      (run_pass tally ~what:"warm-up" runs (fun () -> Executor.of_jobs 1))
  in
  replay_findings tally reference;
  reference

let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let wall pass = sum (fun (_, s, _) -> s) pass
let execs_of pass = sum (fun (r, _, _) -> float_of_int (execs r)) pass
let floats = Campaign_run.floats

let run_e2e ~seed ~seconds tally =
  let runs = runs seed in
  let setup_s, _ = measure_setup runs in
  let reference = warm_up tally runs in
  let j1 = ref [] and j2 = ref [] and ev = ref [] and lat = ref [] in
  Clock.rounds ~seconds (fun () ->
      let probe = Timed_exec.create () in
      let pass, events =
        counting_events (fun () ->
            run_pass tally ~what:"jobs=1" ~reference runs (fun () ->
                Timed_exec.wrap ~time_calls:true probe (Executor.of_jobs 1)))
      in
      let wall_s = wall pass in
      j1 := (execs_of pass, wall_s) :: !j1;
      ev := (float_of_int events, wall_s) :: !ev;
      lat := probe :: !lat;
      let pass =
        run_pass tally ~what:"jobs=2" ~reference runs (fun () -> Executor.of_jobs 2)
      in
      j2 := (execs_of pass, wall pass) :: !j2);
  let lat = Timed_exec.sorted_latencies_ms !lat in
  ( Metric.
      [ v "setup_s" "s" setup_s;
        v "trials_per_s" "1/s" (Sample.rate !j1);
        v "trials_per_s.j2" "1/s" (Sample.rate !j2);
        v "trial_ms.p50" "ms" (Sample.percentile lat 50.);
        v "trial_ms.p95" "ms" (Sample.percentile lat 95.);
        v "sim_events_per_s" "1/s" (Sample.rate !ev) ],
    J.Obj
      [ ("latency_samples", J.Int (Array.length lat));
        ("execs_per_s", floats (Sample.rates !j1));
        ("execs_per_s.j2", floats (Sample.rates !j2));
        ("sim_events_per_s", floats (Sample.rates !ev)) ] )

(* One traced round: the loop at jobs=1 with each runner call timed and
   the GC ledger on; the same pass untraced; a jobs=2 pass with the
   ledger on; and the phase replica over the reference corpus. *)
let traced_round tally ledger runs reference corpus =
  Gc_ledger.reset ledger;
  let probe = Timed_exec.create () in
  let pass =
    run_pass tally ~what:"jobs=1 traced" ~reference runs (fun () ->
        Timed_exec.wrap ~time_calls:true
          ~after_call:(fun () -> Gc_ledger.poll_if_due ledger)
          probe (Executor.of_jobs 1))
  in
  let traced_s = wall pass and n = execs_of pass in
  (* what the polls allocated is the only count that depends on timing *)
  let words = sum (fun (_, _, w) -> w) pass -. ledger.Gc_ledger.poll_words.(0) in
  let poll_s = float_of_int ledger.Gc_ledger.poll_ns *. 1e-9 in
  Gc_ledger.poll ledger;
  let gc1 = Gc_ledger.totals ledger and gc1_json = Gc_ledger.to_json ledger in
  let results = List.map (fun (r, _, _) -> r) pass in
  Gc_ledger.pause ();
  let probe1 = Timed_exec.create () in
  let untraced_s =
    wall
      (run_pass tally ~what:"jobs=1" ~reference runs (fun () ->
           Timed_exec.wrap ~time_calls:true probe1 (Executor.of_jobs 1)))
  in
  Gc_ledger.resume ();
  Gc_ledger.reset ledger;
  let probe2 = Timed_exec.create () in
  let j2_s =
    wall
      (run_pass tally ~what:"jobs=2 traced" ~reference runs (fun () ->
           Timed_exec.wrap ~after_call:(fun () -> Gc_ledger.poll_if_due ledger) probe2
             (Executor.of_jobs 2)))
  in
  Gc_ledger.poll ledger;
  let gc2 = Gc_ledger.totals ledger in
  let acc = Replica.create () in
  List.iteri
    (fun i (h, horizon, tr, o) ->
      Tally.attempt tally 1;
      match Replica.run acc ~arena:false h ~horizon tr with
      | r when Replica.matches r o -> ()
      | _ -> Tally.fail tally 1 "replica of corpus trial %d differs from run_trial" i
      | exception e ->
        Tally.fail tally 1 "replica of corpus trial %d raised %s" i (Printexc.to_string e))
    corpus;
  let f = float_of_int in
  let in_trial_s = f probe.in_runner_ns *. 1e-9 in
  let count g = f (List.fold_left (fun acc r -> acc + g r) 0 results) in
  ( Replica.metrics acc
    @ Metric.
        [ v "executor.overhead_frac.j1" "ratio"
            (Sample.ratio (f (probe1.map_ns - probe1.in_runner_ns)) (f probe1.map_ns));
          v "executor.busy_frac.j2" "ratio" (Sample.ratio probe2.busy_s probe2.capacity_s);
          v "executor.tail_idle_s.j2" "s" probe2.tail_idle_s;
          v "executor.claims.j2" "count" (f probe2.claims);
          v "gc.minor_words_per_trial" "words" (Sample.ratio words n);
          v "gc.minor_collections_per_trial" "count" (Sample.ratio (f gc1.minor_count) n);
          v "gc.minor_frac" "ratio" (Sample.ratio (f gc1.minor_ns *. 1e-9) traced_s);
          v "gc.major_slice_frac" "ratio" (Sample.ratio (f gc1.major_ns *. 1e-9) traced_s);
          v "gc.minor_frac.j2" "ratio" (Sample.ratio (f gc2.minor_ns *. 1e-9) (2. *. j2_s));
          v "fuzz.in_trial_frac" "ratio" (Sample.ratio in_trial_s traced_s);
          v "fuzz.loop_ms" "ms"
            ((traced_s -. in_trial_s -. poll_s) *. 1e3);
          v "fuzz.shrink_frac" "ratio" (Sample.ratio (count (fun r -> r.r_shrink_execs)) n);
          v "fuzz.corpus_yield" "ratio"
            (Sample.ratio (count (fun r -> List.length r.r_corpus)) (count (fun r -> r.r_execs)));
          v "fuzz.findings" "count" (count (fun r -> List.length r.r_findings));
          v "fuzz.features" "count" (count (fun r -> r.r_features));
          v "bench.trace_overhead_frac" "ratio" (Sample.ratio traced_s untraced_s -. 1.);
          v "bench.span_coverage" "ratio" (Sample.ratio in_trial_s traced_s) ],
    J.Obj
      [ ("traced_s", J.Float traced_s);
        ("untraced_s", J.Float untraced_s);
        ("jobs2_s", J.Float j2_s);
        ("replayed_corpus_trials", J.Int acc.trials);
        ("gc_j1", gc1_json);
        ("gc_j2", Gc_ledger.to_json ledger);
        ("lost_events", J.Int (gc1.lost_events + gc2.lost_events)) ] )

let run_traced ~seed ~seconds tally =
  let runs = runs seed in
  let _, plan_ms = measure_setup runs in
  let reference = warm_up tally runs in
  let corpus = corpus_trials reference in
  let ledger = Gc_ledger.start () in
  let rounds = ref [] in
  Clock.rounds ~seconds (fun () ->
      rounds := traced_round tally ledger runs reference corpus :: !rounds);
  let rounds = List.rev !rounds in
  (Metric.v "plan.ms" "ms" plan_ms :: Metric.median_by_name (List.map fst rounds),
   J.List (List.map snd rounds))
