(* CLOCK_MONOTONIC in nanoseconds, as an immediate int: reading it
   allocates nothing, so it can sit inside allocation-counting windows. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())

let since_s t0 = float_of_int (now_ns () - t0) *. 1e-9

(* Runs [round] once, then again while one more round as long as the
   last one still fits in [seconds]: every sample is a whole round, so
   each round measures the same mix of trials. *)
let rounds ~seconds round =
  let t0 = now_ns () in
  let rec go last =
    round ();
    let elapsed = since_s t0 in
    if elapsed +. (elapsed -. last) <= seconds then go elapsed
  in
  go 0.
