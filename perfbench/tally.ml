(* Trials and fuzz executions attempted, and those that raised or broke
   an output check; the benchmark's [attempted] and [failed] fields. *)
type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (* newest first, capped *)
}

let create () = { attempted = 0; failed = 0; notes = [] }

let attempt t n = t.attempted <- t.attempted + n

let fail t n fmt =
  Printf.ksprintf
    (fun msg ->
      t.failed <- t.failed + n;
      if List.length t.notes < 50 then t.notes <- msg :: t.notes;
      prerr_endline ("perfbench: check failed: " ^ msg))
    fmt
