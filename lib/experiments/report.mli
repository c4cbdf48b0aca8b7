(** Rendering of the GMP experiment results as the paper's tables. *)

type t = {
  id : string;  (** e.g. ["Table 1"] *)
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

val make :
  id:string -> title:string -> header:string list ->
  ?notes:string list -> string list list -> t

val render : Format.formatter -> t -> unit
(** ASCII table with wrapped cells. *)

val to_string : t -> string

val print : t -> unit
(** Renders to stdout. *)

val to_json : t -> string
(** The table as one self-contained JSON object:
    [{"id":..., "title":..., "header":[...], "rows":[[...],...],
      "notes":[...]}].  All cells are strings, exactly as rendered. *)
