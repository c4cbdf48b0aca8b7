(* Executors that observe the trials an executor runs, from outside:
   they wrap [Executor.of_jobs]'s own [try_map] and change nothing about
   which trials run where, or in what order results come back. *)

open Pfi_testgen

type t = {
  mutable lat_ns : int array;  (* per runner call, when timed *)
  mutable calls : int;
  mutable in_runner_ns : int;
  mutable map_ns : int;  (* wall time inside the wrapped [try_map] *)
  mutable claims : int;
  mutable tail_idle_s : float;
  mutable busy_s : float;
  mutable capacity_s : float;  (* map elapsed x workers *)
}

let create () =
  { lat_ns = Array.make 1024 0;
    calls = 0;
    in_runner_ns = 0;
    map_ns = 0;
    claims = 0;
    tail_idle_s = 0.;
    busy_s = 0.;
    capacity_s = 0. }

let record t ns =
  if t.calls = Array.length t.lat_ns then begin
    let grown = Array.make (2 * t.calls) 0 in
    Array.blit t.lat_ns 0 grown 0 t.calls;
    t.lat_ns <- grown
  end;
  t.lat_ns.(t.calls) <- ns;
  t.calls <- t.calls + 1;
  t.in_runner_ns <- t.in_runner_ns + ns

(* Every latency the probes recorded, in ms, sorted. *)
let sorted_latencies_ms probes =
  let all =
    Array.concat
      (List.map (fun t -> Array.init t.calls (fun i -> float_of_int t.lat_ns.(i) *. 1e-6)) probes)
  in
  Array.sort Float.compare all;
  all

(* Fold one map's scheduling counters into [t]: [Executor.stats] are
   lifetime sums, so a map's share is the difference around it.  The
   tail idle time is how long the map's least busy worker waited. *)
let note_map t (before : Executor.stats) (after : Executor.stats) =
  let worker (s : Executor.stats) i =
    match List.nth_opt s.st_workers i with
    | Some w -> w
    | None -> { Executor.ws_claims = 0; ws_items = 0; ws_busy_s = 0. }
  in
  let workers = after.st_spawned - before.st_spawned + 1 in
  let elapsed = after.st_elapsed_s -. before.st_elapsed_s in
  let busy =
    List.init workers (fun i ->
        (worker after i).ws_busy_s -. (worker before i).ws_busy_s)
  in
  let claims =
    List.init (List.length after.st_workers) (fun i ->
        (worker after i).ws_claims - (worker before i).ws_claims)
  in
  t.claims <- t.claims + List.fold_left ( + ) 0 claims;
  t.tail_idle_s <-
    t.tail_idle_s +. (elapsed -. List.fold_left Float.min elapsed busy);
  t.busy_s <- t.busy_s +. List.fold_left ( +. ) 0. busy;
  t.capacity_s <- t.capacity_s +. (elapsed *. float_of_int workers)

(* [time_calls] times each runner call (sequential executors only: the
   latency buffer is not shared between domains).  [after_call] runs
   on the main domain after each of its runner calls, outside the timed
   window. *)
let wrap ?(time_calls = false) ?(after_call = ignore) t (inner : Executor.t) =
  let runner f x =
    let t0 = if time_calls then Clock.now_ns () else 0 in
    let r = f x in
    if time_calls then record t (Clock.now_ns () - t0);
    if Domain.is_main_domain () then after_call ();
    r
  in
  { Executor.exec_name = inner.exec_name;
    width = inner.width;
    stats_cell = inner.stats_cell;
    try_map =
      (fun f items ->
        let before = Executor.stats inner in
        let t0 = Clock.now_ns () in
        let results = inner.try_map (runner f) items in
        t.map_ns <- t.map_ns + (Clock.now_ns () - t0);
        note_map t before (Executor.stats inner);
        results) }

exception Dispatched

(* Raises [Dispatched] instead of running the first batch it is handed:
   timing a front end up to this point measures its set-up alone. *)
let stop_at_dispatch =
  { Executor.exec_name = "stop-at-dispatch";
    width = 1;
    stats_cell = ref (Executor.zero_stats "stop-at-dispatch");
    try_map = (fun _ _ -> raise Dispatched) }
