(* The phase replica: one campaign trial replayed as the public calls
   [Campaign.run_trial] makes, with a span and an allocation count
   around each layer it crosses:

     Arena.scratch -> H.build                         build
     Pfi_layer.set_*_filter_compiled, arm, H.workload arm
     Sim.run ~until                                   sim_run
     Trace.count                                      trace
     H.check, Oracle.check                            check

   Callers compare the result with [run_trial]'s outcome for the same
   trial, so a replica that drifted from the real path shows up as a
   failed trial rather than as a wrong ledger. *)

open Pfi_engine
open Pfi_testgen

type t = {
  mutable trials : int;
  mutable build_ns : int;
  mutable arm_ns : int;
  mutable sim_ns : int;
  mutable trace_ns : int;
  mutable check_ns : int;
  mutable events : int;
  mutable records : int;
  mutable msgs : int;
  mutable actions : int;
  words : float array;
      (* [| build; sim_run; whole trial |], kept in a float array so
         adding to them allocates nothing inside the counted windows *)
}

let create () =
  { trials = 0; build_ns = 0; arm_ns = 0; sim_ns = 0; trace_ns = 0;
    check_ns = 0; events = 0; records = 0; msgs = 0; actions = 0;
    words = [| 0.; 0.; 0. |] }

let trial_ns t = t.build_ns + t.arm_ns + t.sim_ns + t.trace_ns + t.check_ns

let actions (s : Pfi_core.Pfi_layer.stats) =
  s.dropped + s.delayed + s.duplicated + s.held + s.injected + s.modified

(* [arena] as in [run_trial]: off for trials whose trace is kept. *)
let run t ?(arena = true) (module H : Harness_intf.HARNESS) ~horizon
    (tr : Campaign.trial) =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let scratch = if arena then Some (Arena.scratch ()) else None in
  let env = H.build ?scratch ~seed:tr.t_seed () in
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  let pfi = H.pfi env in
  (match tr.t_side with
   | Campaign.Send_filter ->
     Pfi_core.Pfi_layer.set_send_filter_compiled pfi tr.t_script
   | Campaign.Receive_filter ->
     Pfi_core.Pfi_layer.set_receive_filter_compiled pfi tr.t_script
   | Campaign.Both_filters ->
     Pfi_core.Pfi_layer.set_send_filter_compiled pfi tr.t_script;
     Pfi_core.Pfi_layer.set_receive_filter_compiled pfi tr.t_script);
  (match tr.t_arm with Some arm -> arm (H.sim env) pfi | None -> ());
  H.workload env;
  let sim = H.sim env in
  let t2 = Clock.now_ns () in
  let w2 = Gc.minor_words () in
  Sim.run ~until:horizon sim;
  let t3 = Clock.now_ns () in
  let w3 = Gc.minor_words () in
  let trace = Sim.trace sim in
  let injected_events =
    Trace.count ~tag:"testgen.fault" trace + Trace.count ~tag:"pfi.log" trace
  in
  let t4 = Clock.now_ns () in
  let verdict =
    match H.check env with
    | Error reason -> Campaign.Violation reason
    | Ok () -> (
        match Oracle.check [] trace with
        | Ok () -> Campaign.Tolerated
        | Error reason -> Campaign.Violation reason)
  in
  let t5 = Clock.now_ns () in
  let w5 = Gc.minor_words () in
  t.words.(0) <- t.words.(0) +. (w1 -. w0);
  t.words.(1) <- t.words.(1) +. (w3 -. w2);
  t.words.(2) <- t.words.(2) +. (w5 -. w0);
  t.trials <- t.trials + 1;
  t.build_ns <- t.build_ns + (t1 - t0);
  t.arm_ns <- t.arm_ns + (t2 - t1);
  t.sim_ns <- t.sim_ns + (t3 - t2);
  t.trace_ns <- t.trace_ns + (t4 - t3);
  t.check_ns <- t.check_ns + (t5 - t4);
  let sim_events = Sim.events sim in
  t.events <- t.events + sim_events;
  t.records <- t.records + Trace.length trace;
  let send = Pfi_core.Pfi_layer.send_stats pfi
  and recv = Pfi_core.Pfi_layer.receive_stats pfi in
  t.msgs <- t.msgs + Pfi_core.Pfi_layer.total_filtered pfi;
  t.actions <- t.actions + actions send + actions recv;
  (verdict, injected_events, sim_events)

let matches (verdict, injected, events) (o : Campaign.outcome) =
  verdict = o.verdict && injected = o.injected_events && events = o.sim_events

let per_trial t x = Sample.ratio x (float_of_int t.trials)
let frac t ns = Sample.ratio (float_of_int ns) (float_of_int (trial_ns t))

(* The layer metrics the replica measures, in the benchmark's names. *)
let metrics t =
  let us ns = per_trial t (float_of_int ns *. 1e-3) in
  let f = float_of_int in
  Metric.
    [ v "build.us_per_trial" "us" (us t.build_ns);
      v "build.frac" "ratio" (frac t t.build_ns);
      v "build.minor_words_per_trial" "words" (per_trial t t.words.(0));
      v "arm.us_per_trial" "us" (us t.arm_ns);
      v "sim_run.frac" "ratio" (frac t t.sim_ns);
      v "sim_run.ns_per_event" "ns" (Sample.ratio (f t.sim_ns) (f t.events));
      v "sim_run.minor_words_per_event" "words"
        (Sample.ratio t.words.(1) (f t.events));
      v "sim.events_per_trial" "count" (per_trial t (f t.events));
      v "trace.records_per_trial" "count" (per_trial t (f t.records));
      v "trace.query_us_per_trial" "us" (us t.trace_ns);
      v "pfi.msgs_per_trial" "count" (per_trial t (f t.msgs));
      v "pfi.action_frac" "ratio" (Sample.ratio (f t.actions) (f t.msgs));
      v "check.us_per_trial" "us" (us t.check_ns);
      v "check.frac" "ratio" (frac t t.check_ns) ]
