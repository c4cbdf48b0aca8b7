(* Minor-collection and major-slice spans of every domain, read back
   from this process's own Runtime_events ring.  Used by the traced run
   only: starting the ring has a cost, which the ledger reports as
   [bench.trace_overhead_frac]. *)

module RE = Runtime_events

let max_rings = 128 (* the runtime's domain limit *)

type span = { mutable count : int; mutable total_ns : int; mutable max_ns : int }

type t = {
  cursor : RE.cursor;
  callbacks : RE.Callbacks.t;
  minor : span array;  (* by ring, i.e. by domain slot *)
  major : span array;
  lost : int ref;
  poll_words : float array;  (* [| words the polls allocated |] *)
  mutable poll_ns : int;
  mutable last_poll_ns : int;
}

let ns ts = Int64.to_int (RE.Timestamp.to_int64 ts)

let start () =
  RE.start ();
  let span () = { count = 0; total_ns = 0; max_ns = 0 } in
  let minor = Array.init max_rings (fun _ -> span ())
  and major = Array.init max_rings (fun _ -> span ()) in
  let open_minor = Array.make max_rings (-1)
  and open_major = Array.make max_rings (-1) in
  let lost = ref 0 in
  let on_begin ring ts = function
    | RE.EV_MINOR -> open_minor.(ring) <- ns ts
    | RE.EV_MAJOR_SLICE -> open_major.(ring) <- ns ts
    | _ -> ()
  in
  let close spans opened ring ts =
    if opened.(ring) >= 0 then begin
      let d = ns ts - opened.(ring) and s = spans.(ring) in
      s.count <- s.count + 1;
      s.total_ns <- s.total_ns + d;
      s.max_ns <- max s.max_ns d;
      opened.(ring) <- -1
    end
  in
  let on_end ring ts = function
    | RE.EV_MINOR -> close minor open_minor ring ts
    | RE.EV_MAJOR_SLICE -> close major open_major ring ts
    | _ -> ()
  in
  let callbacks =
    RE.Callbacks.create ~runtime_begin:on_begin ~runtime_end:on_end
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()
  in
  { cursor = RE.create_cursor None;
    callbacks;
    minor;
    major;
    lost;
    poll_words = [| 0. |];
    poll_ns = 0;
    last_poll_ns = Clock.now_ns () }

let poll t =
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  ignore (RE.read_poll t.cursor t.callbacks None : int);
  t.last_poll_ns <- Clock.now_ns ();
  t.poll_ns <- t.poll_ns + (t.last_poll_ns - t0);
  t.poll_words.(0) <- t.poll_words.(0) +. (Gc.minor_words () -. w0)

(* The ring holds 2^16 words per domain by default; a poll every few
   milliseconds keeps it far from wrapping. *)
let poll_if_due t = if Clock.now_ns () - t.last_poll_ns >= 5_000_000 then poll t

(* Drain what is in the ring, then zero every counter. *)
let reset t =
  poll t;
  let zero s = s.count <- 0; s.total_ns <- 0; s.max_ns <- 0 in
  Array.iter zero t.minor;
  Array.iter zero t.major;
  t.lost := 0;
  t.poll_words.(0) <- 0.;
  t.poll_ns <- 0

let pause () = RE.pause ()
let resume () = RE.resume ()

type totals = { minor_count : int; minor_ns : int; major_ns : int; lost_events : int }

let totals t =
  let sum f spans = Array.fold_left (fun acc s -> acc + f s) 0 spans in
  { minor_count = sum (fun s -> s.count) t.minor;
    minor_ns = sum (fun s -> s.total_ns) t.minor;
    major_ns = sum (fun s -> s.total_ns) t.major;
    lost_events = !(t.lost) }

(* Per-domain begin/end accounting, for the results file. *)
let to_json t =
  let module J = Pfi_testgen.Repro.Json in
  let span s =
    J.Obj
      [ ("count", J.Int s.count);
        ("total_ms", J.Float (float_of_int s.total_ns *. 1e-6));
        ("max_us", J.Float (float_of_int s.max_ns *. 1e-3)) ]
  in
  J.Obj
    [ ("lost_events", J.Int !(t.lost));
      ( "domains",
        J.List
          (List.filter_map
             (fun ring ->
               if t.minor.(ring).count = 0 && t.major.(ring).count = 0 then None
               else
                 Some
                   (J.Obj
                      [ ("ring", J.Int ring);
                        ("minor", span t.minor.(ring));
                        ("major_slice", span t.major.(ring)) ]))
             (List.init max_rings Fun.id)) ) ]
