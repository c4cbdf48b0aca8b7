open Pfi_engine

(* ------------------------------------------------------------------ *)
(* A minimal JSON tree, writer and parser.                            *)
(*                                                                    *)
(* The repo's other JSON output (Trace) is writer-only; repro         *)
(* artifacts are the first thing we *read back*, so this module       *)
(* carries its own recursive-descent parser.  Deliberately small:     *)
(* objects keep field order (assoc list), numbers split into Int and  *)
(* Float so 64-bit-safe values can round-trip as decimal strings      *)
(* where needed, and escaping reuses the Trace escaper.               *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let rec write buf indent v =
    let pad n = String.make n ' ' in
    match v with
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f ->
      (* %.17g round-trips every finite double *)
      Buffer.add_string buf (Printf.sprintf "%.17g" f)
    | Str s -> Trace.add_json_string buf s
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 2));
          write buf (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf (pad (indent + 2));
          Trace.add_json_string buf k;
          Buffer.add_string buf ": ";
          write buf (indent + 2) item)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (pad indent);
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 512 in
    write buf 0 v;
    Buffer.contents buf

  (* compact single-line form, for JSONL streams *)
  let to_line v =
    let buf = Buffer.create 256 in
    let rec go = function
      | (Null | Bool _ | Int _ | Float _ | Str _) as scalar ->
        write buf 0 scalar
      | List items ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i item ->
            if i > 0 then Buffer.add_char buf ',';
            go item)
          items;
        Buffer.add_char buf ']'
      | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, item) ->
            if i > 0 then Buffer.add_char buf ',';
            Trace.add_json_string buf k;
            Buffer.add_char buf ':';
            go item)
          fields;
        Buffer.add_char buf '}'
    in
    go v;
    Buffer.contents buf

  exception Bad of string

  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        value
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (if !pos >= n then fail "unterminated escape";
           let e = s.[!pos] in
           advance ();
           match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'u' ->
             if !pos + 4 > n then fail "truncated \\u escape";
             let hex = String.sub s !pos 4 in
             pos := !pos + 4;
             let code =
               try int_of_string ("0x" ^ hex)
               with _ -> fail "bad \\u escape"
             in
             (* the writer ({!Trace.add_json_string}) emits [\u00XX]
                only for raw bytes — control characters and bytes that
                are not valid UTF-8 — so codes up to 0xFF decode back to
                the single byte (exact round-trip); larger codes are the
                BMP-as-UTF-8 cases *)
             if code <= 0xFF then Buffer.add_char buf (Char.chr code)
             else if code < 0x800 then begin
               Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
             else begin
               Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
               Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
           | _ -> fail "unknown escape");
          go ()
        | c -> Buffer.add_char buf c; go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c when is_num_char c -> true | _ -> false) do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      if String.exists (function '.' | 'e' | 'E' -> true | _ -> false) text
      then
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number"
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (advance (); List [])
        else begin
          let items = ref [ parse_value () ] in
          let rec more () =
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items := parse_value () :: !items; more ()
            | Some ']' -> advance ()
            | _ -> fail "expected ',' or ']'"
          in
          more ();
          List (List.rev !items)
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (advance (); Obj [])
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          let rec more () =
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields := field () :: !fields; more ()
            | Some '}' -> advance ()
            | _ -> fail "expected ',' or '}'"
          in
          more ();
          Obj (List.rev !fields)
        end
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Bad msg -> Error msg

  (* accessors used by the artifact decoder *)
  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let to_str = function Str s -> Some s | _ -> None
  let to_int = function Int i -> Some i | _ -> None

  let to_float = function
    | Float f -> Some f
    | Int i -> Some (float_of_int i)
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Fault <-> JSON                                                     *)
(* ------------------------------------------------------------------ *)

let fault_to_json (fault : Generator.fault) : Json.t =
  let open Json in
  match fault with
  | Generator.Drop_all t -> Obj [ ("kind", Str "drop_all"); ("mtype", Str t) ]
  | Generator.Drop_after (t, n) ->
    Obj [ ("kind", Str "drop_after"); ("mtype", Str t); ("n", Int n) ]
  | Generator.Drop_first (t, n) ->
    Obj [ ("kind", Str "drop_first"); ("mtype", Str t); ("n", Int n) ]
  | Generator.Drop_nth (t, n) ->
    Obj [ ("kind", Str "drop_nth"); ("mtype", Str t); ("n", Int n) ]
  | Generator.Drop_fraction (t, p) ->
    Obj [ ("kind", Str "drop_fraction"); ("mtype", Str t); ("p", Float p) ]
  | Generator.Omission_all p -> Obj [ ("kind", Str "omission_all"); ("p", Float p) ]
  | Generator.Byzantine_mix p ->
    Obj [ ("kind", Str "byzantine_mix"); ("p", Float p) ]
  | Generator.Delay_each (t, s) ->
    Obj [ ("kind", Str "delay_each"); ("mtype", Str t); ("seconds", Float s) ]
  | Generator.Duplicate t -> Obj [ ("kind", Str "duplicate"); ("mtype", Str t) ]
  | Generator.Corrupt (t, p) ->
    Obj [ ("kind", Str "corrupt"); ("mtype", Str t); ("p", Float p) ]
  | Generator.Reorder t -> Obj [ ("kind", Str "reorder"); ("mtype", Str t) ]
  | Generator.Inject_spurious (m, dst) ->
    Obj
      [ ("kind", Str "inject_spurious");
        ("mtype", Str m.Spec.mtype);
        ("stateless", Bool m.Spec.stateless);
        ("gen_args", Obj (List.map (fun (k, v) -> (k, Str v)) m.Spec.gen_args));
        ("dst", Str dst) ]

let fault_of_json (j : Json.t) : (Generator.fault, string) result =
  let open Json in
  let str key = Option.bind (member key j) to_str in
  let int key = Option.bind (member key j) to_int in
  let flt key = Option.bind (member key j) to_float in
  let need what = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "fault: missing or ill-typed %S" what)
  in
  let ( let* ) = Result.bind in
  let* kind = need "kind" (str "kind") in
  match kind with
  | "drop_all" ->
    let* t = need "mtype" (str "mtype") in
    Ok (Generator.Drop_all t)
  | "drop_after" ->
    let* t = need "mtype" (str "mtype") in
    let* n = need "n" (int "n") in
    Ok (Generator.Drop_after (t, n))
  | "drop_first" ->
    let* t = need "mtype" (str "mtype") in
    let* n = need "n" (int "n") in
    Ok (Generator.Drop_first (t, n))
  | "drop_nth" ->
    let* t = need "mtype" (str "mtype") in
    let* n = need "n" (int "n") in
    Ok (Generator.Drop_nth (t, n))
  | "drop_fraction" ->
    let* t = need "mtype" (str "mtype") in
    let* p = need "p" (flt "p") in
    Ok (Generator.Drop_fraction (t, p))
  | "omission_all" ->
    let* p = need "p" (flt "p") in
    Ok (Generator.Omission_all p)
  | "byzantine_mix" ->
    let* p = need "p" (flt "p") in
    Ok (Generator.Byzantine_mix p)
  | "delay_each" ->
    let* t = need "mtype" (str "mtype") in
    let* s = need "seconds" (flt "seconds") in
    Ok (Generator.Delay_each (t, s))
  | "duplicate" ->
    let* t = need "mtype" (str "mtype") in
    Ok (Generator.Duplicate t)
  | "corrupt" ->
    let* t = need "mtype" (str "mtype") in
    let* p = need "p" (flt "p") in
    Ok (Generator.Corrupt (t, p))
  | "reorder" ->
    let* t = need "mtype" (str "mtype") in
    Ok (Generator.Reorder t)
  | "inject_spurious" ->
    let* t = need "mtype" (str "mtype") in
    let* dst = need "dst" (str "dst") in
    let stateless =
      match member "stateless" j with Some (Bool b) -> b | _ -> true
    in
    let* gen_args =
      match member "gen_args" j with
      | Some (Obj fields) ->
        let rec conv acc = function
          | [] -> Ok (List.rev acc)
          | (k, Str v) :: rest -> conv ((k, v) :: acc) rest
          | (k, _) :: _ -> Error (Printf.sprintf "fault: gen_args.%s not a string" k)
        in
        conv [] fields
      | None -> Ok []
      | Some _ -> Error "fault: gen_args not an object"
    in
    Ok (Generator.Inject_spurious ({ Spec.mtype = t; stateless; gen_args }, dst))
  | other -> Error (Printf.sprintf "fault: unknown kind %S" other)

(* ------------------------------------------------------------------ *)
(* The artifact                                                       *)
(* ------------------------------------------------------------------ *)

type shrink_step = {
  step_fault : Generator.fault;
  step_side : Campaign.side;
  step_horizon : Vtime.t;
  step_seed : int64;
  step_size : int;
  step_reason : string;
}

type t = {
  version : int;
  harness : string;
  protocol : string;
  target : string;
  fault : Generator.fault;
  side : Campaign.side;
  horizon : Vtime.t;
  seed : int64;
  campaign_seed : int64;
  script : string;
  verdict : Campaign.verdict;
  injected_events : int;
  shrink_trajectory : shrink_step list;
}

let current_version = 1

let of_outcome ~harness ~protocol ~target ~horizon ~campaign_seed
    (o : Campaign.outcome) =
  { version = current_version;
    harness;
    protocol;
    target;
    fault = o.Campaign.fault;
    side = o.Campaign.side;
    horizon;
    seed = o.Campaign.seed;
    campaign_seed;
    script = Generator.script_of_fault o.Campaign.fault;
    verdict = o.Campaign.verdict;
    injected_events = o.Campaign.injected_events;
    shrink_trajectory = [] }

let verdict_to_json = function
  | Campaign.Tolerated -> Json.Obj [ ("status", Json.Str "tolerated") ]
  | Campaign.Violation reason ->
    Json.Obj [ ("status", Json.Str "violation"); ("reason", Json.Str reason) ]

let verdict_of_json j =
  match Option.bind (Json.member "status" j) Json.to_str with
  | Some "tolerated" -> Ok Campaign.Tolerated
  | Some "violation" ->
    (match Option.bind (Json.member "reason" j) Json.to_str with
     | Some reason -> Ok (Campaign.Violation reason)
     | None -> Error "verdict: violation without a reason")
  | Some other -> Error (Printf.sprintf "verdict: unknown status %S" other)
  | None -> Error "verdict: missing status"

(* int64 values (seeds, horizon in µs) are emitted as decimal strings:
   JSON numbers are doubles, and a splitmix64-derived seed does not fit
   in 53 bits. *)
let int64_str v = Json.Str (Int64.to_string v)

let step_to_json s =
  Json.Obj
    [ ("fault", fault_to_json s.step_fault);
      ("side", Json.Str (Campaign.side_name s.step_side));
      ("horizon_us", int64_str (Vtime.to_us s.step_horizon));
      ("seed", int64_str s.step_seed);
      ("size", Json.Int s.step_size);
      ("reason", Json.Str s.step_reason) ]

let to_json (a : t) : string =
  Json.to_string
    (Json.Obj
       [ ("version", Json.Int a.version);
         ("harness", Json.Str a.harness);
         ("protocol", Json.Str a.protocol);
         ("target", Json.Str a.target);
         ("fault", fault_to_json a.fault);
         ("side", Json.Str (Campaign.side_name a.side));
         ("horizon_us", int64_str (Vtime.to_us a.horizon));
         ("seed", int64_str a.seed);
         ("campaign_seed", int64_str a.campaign_seed);
         ("script", Json.Str a.script);
         ("verdict", verdict_to_json a.verdict);
         ("injected_events", Json.Int a.injected_events);
         ("shrink_trajectory", Json.List (List.map step_to_json a.shrink_trajectory)) ])
  ^ "\n"

let ( let* ) = Result.bind

let need what = function
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "artifact: missing or ill-typed %S" what)

let int64_of_member j key =
  match Json.member key j with
  | Some (Json.Str s) ->
    (match Int64.of_string_opt s with
     | Some v -> Ok v
     | None -> Error (Printf.sprintf "artifact: %S is not a 64-bit decimal" key))
  | Some (Json.Int i) -> Ok (Int64.of_int i)
  | _ -> Error (Printf.sprintf "artifact: missing or ill-typed %S" key)

let side_of_member j key =
  let* name = need key (Option.bind (Json.member key j) Json.to_str) in
  match Campaign.side_of_name name with
  | Some side -> Ok side
  | None -> Error (Printf.sprintf "artifact: unknown side %S" name)

let step_of_json j =
  let* fault = Result.bind (need "fault" (Json.member "fault" j)) fault_of_json in
  let* side = side_of_member j "side" in
  let* horizon_us = int64_of_member j "horizon_us" in
  let* seed = int64_of_member j "seed" in
  let* size = need "size" (Option.bind (Json.member "size" j) Json.to_int) in
  let* reason = need "reason" (Option.bind (Json.member "reason" j) Json.to_str) in
  Ok
    { step_fault = fault;
      step_side = side;
      step_horizon = Vtime.us (Int64.to_int horizon_us);
      step_seed = seed;
      step_size = size;
      step_reason = reason }

let of_string (s : string) : (t, string) result =
  let* j = Json.parse s in
  let str key = Option.bind (Json.member key j) Json.to_str in
  let* version =
    need "version" (Option.bind (Json.member "version" j) Json.to_int)
  in
  if version > current_version then
    Error (Printf.sprintf "artifact: version %d is newer than supported %d"
             version current_version)
  else
    let* harness = need "harness" (str "harness") in
    let* protocol = need "protocol" (str "protocol") in
    let* target = need "target" (str "target") in
    let* fault = Result.bind (need "fault" (Json.member "fault" j)) fault_of_json in
    let* side = side_of_member j "side" in
    let* horizon_us = int64_of_member j "horizon_us" in
    let* seed = int64_of_member j "seed" in
    let* campaign_seed = int64_of_member j "campaign_seed" in
    let* script = need "script" (str "script") in
    let* verdict =
      Result.bind (need "verdict" (Json.member "verdict" j)) verdict_of_json
    in
    let* injected_events =
      need "injected_events"
        (Option.bind (Json.member "injected_events" j) Json.to_int)
    in
    let* shrink_trajectory =
      match Json.member "shrink_trajectory" j with
      | None | Some (Json.List []) -> Ok []
      | Some (Json.List steps) ->
        let rec conv acc = function
          | [] -> Ok (List.rev acc)
          | s :: rest -> Result.bind (step_of_json s) (fun s -> conv (s :: acc) rest)
        in
        conv [] steps
      | Some _ -> Error "artifact: shrink_trajectory not a list"
    in
    Ok
      { version;
        harness;
        protocol;
        target;
        fault;
        side;
        horizon = Vtime.us (Int64.to_int horizon_us);
        seed;
        campaign_seed;
        script;
        verdict;
        injected_events;
        shrink_trajectory }

(* ------------------------------------------------------------------ *)
(* Files                                                              *)
(* ------------------------------------------------------------------ *)

let save path (a : t) =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_json a))

let load path : (t, string) result =
  match
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  with
  | contents -> of_string contents
  | exception Sys_error msg -> Error msg

let slug s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c
      | _ -> '-')
    (String.lowercase_ascii s)

let filename ~index (a : t) =
  Printf.sprintf "repro-%03d-%s-%s.json" index
    (Campaign.side_name a.side)
    (slug (Generator.describe a.fault))
