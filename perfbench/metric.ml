module J = Pfi_testgen.Repro.Json

type t = { name : string; value : float; unit : string }

let v name unit value = { name; value; unit }

let to_json ms =
  J.Obj
    (List.map
       (fun m -> (m.name, J.Obj [ ("value", J.Float m.value); ("unit", J.Str m.unit) ]))
       ms)

(* Per-name median across rounds that each measured the same list. *)
let median_by_name = function
  | [] -> []
  | first :: _ as rounds ->
    List.map
      (fun m ->
        let values =
          List.concat_map
            (fun ms -> List.filter_map (fun x -> if x.name = m.name then Some x.value else None) ms)
            rounds
        in
        { m with value = Sample.median values })
      first
