let ratio a b = if b = 0. then 0. else a /. b

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  match Array.length a with
  | 0 -> 0.
  | n when n mod 2 = 1 -> a.(n / 2)
  | n -> (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile of an already sorted array *)
let percentile a p =
  match Array.length a with
  | 0 -> 0.
  | n ->
    let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

(* Work per second over (work, seconds) samples: total over total, so
   each sample weighs by its length. *)
let rate samples =
  ratio
    (List.fold_left (fun acc (w, _) -> acc +. w) 0. samples)
    (List.fold_left (fun acc (_, s) -> acc +. s) 0. samples)

let rates samples = List.rev_map (fun (w, s) -> ratio w s) samples
