type t = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let make ~id ~title ~header ?(notes = []) rows = { id; title; header; rows; notes }

(* wrap a cell's text to a width, breaking on spaces *)
let wrap_cell width text =
  let words = String.split_on_char ' ' text in
  let lines = ref [] in
  let current = Buffer.create width in
  let flush () =
    if Buffer.length current > 0 then begin
      lines := Buffer.contents current :: !lines;
      Buffer.clear current
    end
  in
  List.iter
    (fun word ->
      let extra = if Buffer.length current = 0 then 0 else 1 in
      if Buffer.length current + extra + String.length word > width then flush ();
      if Buffer.length current > 0 then Buffer.add_char current ' ';
      Buffer.add_string current word)
    words;
  flush ();
  match List.rev !lines with [] -> [ "" ] | lines -> lines

let column_widths header rows =
  let ncols = List.length header in
  let natural = Array.make ncols 0 in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < ncols then natural.(i) <- max natural.(i) (String.length cell))
        row)
    (header :: rows);
  (* cap cells so the table fits ~110 columns; give slack to col 0 *)
  Array.mapi (fun i w -> if i = 0 then min w 18 else min w 42) natural

let pad width s = s ^ String.make (max 0 (width - String.length s)) ' '

let render_row ppf widths cells =
  let wrapped = List.mapi (fun i cell -> wrap_cell widths.(i) cell) cells in
  let height = List.fold_left (fun acc l -> max acc (List.length l)) 1 wrapped in
  for line = 0 to height - 1 do
    Format.fprintf ppf "|";
    List.iteri
      (fun i lines ->
        let text = match List.nth_opt lines line with Some s -> s | None -> "" in
        Format.fprintf ppf " %s |" (pad widths.(i) text))
      wrapped;
    Format.fprintf ppf "@."
  done

let separator ppf widths =
  Format.fprintf ppf "+";
  Array.iter (fun w -> Format.fprintf ppf "%s+" (String.make (w + 2) '-')) widths;
  Format.fprintf ppf "@."

let render ppf t =
  Format.fprintf ppf "@.%s: %s@." t.id t.title;
  let widths = column_widths t.header t.rows in
  separator ppf widths;
  render_row ppf widths t.header;
  separator ppf widths;
  List.iter
    (fun row ->
      render_row ppf widths row;
      separator ppf widths)
    t.rows;
  List.iter (fun note -> Format.fprintf ppf "  note: %s@." note) t.notes

let to_string t = Format.asprintf "%a" render t
let print t = render Format.std_formatter t

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let js = Pfi_engine.Trace.add_json_string

let add_string_array buf xs =
  Buffer.add_char buf '[';
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf ',';
      js buf s)
    xs;
  Buffer.add_char buf ']'

let to_json t =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "{\"id\":";
  js buf t.id;
  Buffer.add_string buf ",\"title\":";
  js buf t.title;
  Buffer.add_string buf ",\"header\":";
  add_string_array buf t.header;
  Buffer.add_string buf ",\"rows\":[";
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char buf ',';
      add_string_array buf row)
    t.rows;
  Buffer.add_string buf "],\"notes\":";
  add_string_array buf t.notes;
  Buffer.add_char buf '}';
  Buffer.contents buf
