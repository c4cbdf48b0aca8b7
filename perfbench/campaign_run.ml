(* The campaign workloads: stock plans run through [Campaign.run], as a
   user of [pfi_run campaign] would. *)

open Pfi_testgen
module J = Repro.Json

type t = { harnesses : string list; seeds : int -> int64 list }

(* Long, heavy-tailed trials: [Sim.run] is nearly all of each trial. *)
let gmp = { harnesses = [ "gmp"; "gmp-buggy" ]; seeds = (fun s -> [ Int64.of_int s ]) }

(* Short trials over 40 consecutive campaign seeds: per-trial fixed
   costs (harness build, executor claims) show here. *)
let short =
  { harnesses = [ "abp"; "abp-buggy"; "tcp" ];
    seeds = (fun s -> List.init 40 (fun i -> Int64.of_int (s + i))) }

(* MD5 of [Campaign.table] for each harness's stock plan, as pinned in
   BENCH_engine.baseline.json. *)
let pinned_digests =
  [ ("abp", "bc8fc5cc26f52bb337936200b121cf9d");
    ("abp-buggy", "a43616dc8b8e02eb0fedf4c6baa10c74");
    ("gmp", "277ad2137c0ed4ae23898ee865ed8d85");
    ("gmp-buggy", "0efca5597ee13ce43d3375ef9468daf3");
    ("tcp", "12c286fe1900b95a1b23fd5a71b3250f") ]

let harness name =
  match Registry.find name with
  | Some h -> h
  | None -> invalid_arg ("perfbench: unknown harness " ^ name)

let trials (p : Campaign.plan) = List.length p.p_trials
let name (p : Campaign.plan) = Harness_intf.name p.p_harness

(* Set-up: registry lookup and [Campaign.plan] for every plan.  Returns
   the plans and the time spent inside [Campaign.plan]. *)
let set_up w seed =
  let plan_ns = ref 0 in
  let plans =
    List.concat_map
      (fun s ->
        List.map
          (fun n ->
            let h = harness n in
            let t0 = Clock.now_ns () in
            let p = Campaign.plan ~seed:s h in
            plan_ns := !plan_ns + (Clock.now_ns () - t0);
            p)
          w.harnesses)
      (w.seeds seed)
  in
  (Array.of_list plans, !plan_ns)

let setup_reps = 25

(* [setup_reps] cold set-ups before any trial has run; medians of the
   whole set-up (seconds) and of its [Campaign.plan] share (ms), and the
   last set-up's plans (earlier ones are dropped, so they do not stay
   in the heap). *)
let measure_setup w seed =
  let plans = ref [||] in
  let samples =
    List.init setup_reps (fun _ ->
        let t0 = Clock.now_ns () in
        let ps, plan_ns = set_up w seed in
        plans := ps;
        (Clock.since_s t0, float_of_int plan_ns *. 1e-6))
  in
  (Sample.median (List.map fst samples), Sample.median (List.map snd samples), !plans)

(* One pass over every plan, and its wall time. *)
let run_pass ~executor plans =
  let t0 = Clock.now_ns () in
  let outs =
    Array.map
      (fun p ->
        match Campaign.run ~executor p with
        | s -> Ok s.Campaign.s_outcomes
        | exception e -> Error e)
      plans
  in
  (outs, Clock.since_s t0)

(* Every field [Campaign.table] prints, plus the event count: equal
   outcomes give byte-identical tables. *)
let same (a : Campaign.outcome) (b : Campaign.outcome) =
  a.fault = b.fault && a.side = b.side && a.seed = b.seed
  && a.verdict = b.verdict
  && a.injected_events = b.injected_events
  && a.sim_events = b.sim_events

(* Counts a pass's trials as attempted, and as failed those of a plan
   whose run raised or that differ from the reference pass. *)
let check tally ~what plans ?reference outs =
  Array.iteri
    (fun i p ->
      let n = trials p in
      Tally.attempt tally n;
      match (outs.(i), reference) with
      | Error e, _ ->
        Tally.fail tally n "%s %s: campaign raised %s" what (name p) (Printexc.to_string e)
      | Ok _, None -> ()
      | Ok o, Some r -> (
          match r.(i) with
          | Error _ -> Tally.fail tally n "%s %s: no reference" what (name p)
          | Ok r ->
            let bad =
              if List.compare_lengths o r <> 0 then n
              else
                List.fold_left2 (fun k a b -> if same a b then k else k + 1) 0 o r
            in
            if bad > 0 then
              Tally.fail tally bad "%s %s seed %Ld: %d trial(s) differ from the jobs=1 reference"
                what (name p) p.p_seed bad))
    plans

let stock_check tally w =
  List.iter
    (fun n ->
      let plan = Campaign.plan (harness n) in
      Tally.attempt tally (trials plan);
      match Campaign.run ~executor:(Executor.of_jobs 2) plan with
      | s ->
        let got = Digest.to_hex (Digest.string (Campaign.table s.s_outcomes)) in
        let want = List.assoc n pinned_digests in
        if got <> want then
          Tally.fail tally (trials plan) "%s: stock-seed table digest %s, pinned %s" n
            got want
      | exception e ->
        Tally.fail tally (trials plan) "%s: stock campaign raised %s" n
          (Printexc.to_string e))
    w.harnesses

(* Stock check first, warm-up second: a warm-up at jobs=1 after the
   jobs=2 stock run leaves this domain's arena at the capacity the
   workload needs whatever the earlier claims were, so the allocation
   counts that follow are exact. *)
let warm_up tally w plans =
  stock_check tally w;
  let reference, _ = run_pass ~executor:(Executor.of_jobs 1) plans in
  check tally ~what:"warm-up" plans reference;
  reference

let events outs =
  Array.fold_left
    (fun acc o ->
      match o with
      | Error _ -> acc
      | Ok l ->
        List.fold_left (fun acc (o : Campaign.outcome) -> acc + o.sim_events) acc l)
    0 outs

let floats xs = J.List (List.map (fun x -> J.Float x) xs)

let run_e2e w ~seed ~seconds tally =
  let setup_s, _, plans = measure_setup w seed in
  let reference = warm_up tally w plans in
  let n = float_of_int (Array.fold_left (fun k p -> k + trials p) 0 plans) in
  let j1 = ref [] and j2 = ref [] and ev = ref [] and lat = ref [] in
  Clock.rounds ~seconds (fun () ->
      let probe = Timed_exec.create () in
      let executor = Timed_exec.wrap ~time_calls:true probe (Executor.of_jobs 1) in
      let outs, wall = run_pass ~executor plans in
      check tally ~what:"jobs=1" plans ~reference outs;
      j1 := (n, wall) :: !j1;
      ev := (float_of_int (events outs), wall) :: !ev;
      lat := probe :: !lat;
      let outs, wall = run_pass ~executor:(Executor.of_jobs 2) plans in
      check tally ~what:"jobs=2" plans ~reference outs;
      j2 := (n, wall) :: !j2);
  let lat = Timed_exec.sorted_latencies_ms !lat in
  ( Metric.
      [ v "setup_s" "s" setup_s;
        v "trials_per_s" "1/s" (Sample.rate !j1);
        v "trials_per_s.j2" "1/s" (Sample.rate !j2);
        v "trial_ms.p50" "ms" (Sample.percentile lat 50.);
        v "trial_ms.p95" "ms" (Sample.percentile lat 95.);
        v "sim_events_per_s" "1/s" (Sample.rate !ev) ],
    J.Obj
      [ ("trials_per_pass", J.Float n);
        ("latency_samples", J.Int (Array.length lat));
        ("trials_per_s", floats (Sample.rates !j1));
        ("trials_per_s.j2", floats (Sample.rates !j2));
        ("sim_events_per_s", floats (Sample.rates !ev)) ] )

(* One traced round: the phase replica with the GC ledger on, the same
   pass untraced for the overhead, and a jobs=2 pass with the ledger on. *)
let traced_round tally ledger plans reference =
  Gc_ledger.reset ledger;
  let acc = Replica.create () in
  let t0 = Clock.now_ns () in
  Array.iteri
    (fun i (p : Campaign.plan) ->
      let refs = match reference.(i) with Ok r -> Array.of_list r | Error _ -> [||] in
      Tally.attempt tally (trials p);
      List.iteri
        (fun j tr ->
          (match Replica.run acc p.p_harness ~horizon:p.p_horizon tr with
           | r when j < Array.length refs && Replica.matches r refs.(j) -> ()
           | _ -> Tally.fail tally 1 "replica %s trial %d differs from run_trial" (name p) j
           | exception e ->
             Tally.fail tally 1 "replica %s trial %d raised %s" (name p) j
               (Printexc.to_string e));
          Gc_ledger.poll_if_due ledger)
        p.p_trials)
    plans;
  Gc_ledger.poll ledger;
  let traced_s = Clock.since_s t0 in
  let gc1 = Gc_ledger.totals ledger and gc1_json = Gc_ledger.to_json ledger in
  Gc_ledger.pause ();
  let probe1 = Timed_exec.create () in
  let executor = Timed_exec.wrap ~time_calls:true probe1 (Executor.of_jobs 1) in
  let outs, untraced_s = run_pass ~executor plans in
  check tally ~what:"jobs=1" plans ~reference outs;
  Gc_ledger.resume ();
  Gc_ledger.reset ledger;
  let probe2 = Timed_exec.create () in
  let executor =
    Timed_exec.wrap ~after_call:(fun () -> Gc_ledger.poll_if_due ledger) probe2
      (Executor.of_jobs 2)
  in
  let outs, j2_s = run_pass ~executor plans in
  Gc_ledger.poll ledger;
  check tally ~what:"jobs=2 traced" plans ~reference outs;
  let gc2 = Gc_ledger.totals ledger in
  let trials = float_of_int acc.trials and f = float_of_int in
  let metrics =
    Replica.metrics acc
    @ Metric.
        [ v "executor.overhead_frac.j1" "ratio"
            (Sample.ratio (f (probe1.map_ns - probe1.in_runner_ns)) (f probe1.map_ns));
          v "executor.busy_frac.j2" "ratio" (Sample.ratio probe2.busy_s probe2.capacity_s);
          v "executor.tail_idle_s.j2" "s" probe2.tail_idle_s;
          v "executor.claims.j2" "count" (f probe2.claims);
          v "gc.minor_words_per_trial" "words" (Sample.ratio acc.words.(2) trials);
          v "gc.minor_collections_per_trial" "count"
            (Sample.ratio (f gc1.minor_count) trials);
          v "gc.minor_frac" "ratio" (Sample.ratio (f gc1.minor_ns *. 1e-9) traced_s);
          v "gc.major_slice_frac" "ratio" (Sample.ratio (f gc1.major_ns *. 1e-9) traced_s);
          v "gc.minor_frac.j2" "ratio"
            (Sample.ratio (f gc2.minor_ns *. 1e-9) (2. *. j2_s));
          v "bench.trace_overhead_frac" "ratio" (Sample.ratio traced_s untraced_s -. 1.);
          v "bench.span_coverage" "ratio"
            (Sample.ratio (f (Replica.trial_ns acc) *. 1e-9) traced_s) ]
  in
  ( metrics,
    J.Obj
      [ ("replica_s", J.Float traced_s);
        ("untraced_s", J.Float untraced_s);
        ("jobs2_s", J.Float j2_s);
        ("gc_j1", gc1_json);
        ("gc_j2", Gc_ledger.to_json ledger);
        ("lost_events", J.Int (gc1.lost_events + gc2.lost_events)) ] )

(* A campaign runs no fuzz loop, so the fuzz layer reads zero here. *)
let no_fuzz =
  Metric.
    [ v "fuzz.in_trial_frac" "ratio" 0.;
      v "fuzz.loop_ms" "ms" 0.;
      v "fuzz.shrink_frac" "ratio" 0.;
      v "fuzz.corpus_yield" "ratio" 0.;
      v "fuzz.findings" "count" 0.;
      v "fuzz.features" "count" 0. ]

let run_traced w ~seed ~seconds tally =
  let _, plan_ms, plans = measure_setup w seed in
  let reference = warm_up tally w plans in
  let ledger = Gc_ledger.start () in
  let rounds = ref [] in
  Clock.rounds ~seconds (fun () ->
      rounds := traced_round tally ledger plans reference :: !rounds);
  let rounds = List.rev !rounds in
  ( (Metric.v "plan.ms" "ms" plan_ms :: Metric.median_by_name (List.map fst rounds))
    @ no_fuzz,
    J.List (List.map snd rounds) )
