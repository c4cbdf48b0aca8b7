open Pfi_stack
open Pfi_core.Stubs

let parse msg =
  match Rel_udp.inspect (Message.payload msg) with
  | None -> `Malformed
  | Some (`Ack, seq, _) -> `Rel_ack seq
  | Some ((`Raw | `Data), _, inner) ->
    (match Gmp_msg.decode inner with
     | Ok m -> `Gmp m
     | Error _ -> `Malformed)

(* Classification without decoding: [msg_type] runs on every message a
   fault filter inspects, so it validates the rel header in place and
   reads only the inner type code and member count instead of building
   the full {!Gmp_msg.t}.  Accept/reject is exactly [parse]'s: both
   validate through {!Rel_udp.inspect_header}, and the inner packet is
   typed only if {!Gmp_msg.decode} would succeed on it (fixed fields
   present, member list complete, known type code). *)
let msg_type msg =
  let data = Message.payload msg in
  match Rel_udp.inspect_header data with
  | None -> "?"
  | Some (kind, _) ->
    if kind = Rel_udp.kind_ack then "RACK"
    else if kind <> Rel_udp.kind_raw && kind <> Rel_udp.kind_data then "?"
    else begin
      let base = Rel_udp.header_size in
      let inner_len = Bytes.length data - base in
      if inner_len < Gmp_msg.fixed_size then "?"
      else begin
        let count = Bytes.get_uint16_be data (base + Gmp_msg.count_offset) in
        if inner_len < Gmp_msg.fixed_size + (2 * count) then "?"
        else
          match Gmp_msg.mtype_of_code (Bytes.get_uint8 data base) with
          | Some mtype -> Gmp_msg.mtype_to_string mtype
          | None -> "?"
      end
    end

let describe msg =
  match parse msg with
  | `Rel_ack seq -> Printf.sprintf "RACK seq=%d" seq
  | `Gmp m -> Gmp_msg.describe m
  | `Malformed -> "undecodable GMP packet"

let get_field msg field =
  match parse msg with
  | `Rel_ack seq -> if field = "relseq" then Some (string_of_int seq) else None
  | `Malformed -> None
  | `Gmp m ->
    (match field with
     | "origin" -> Some (string_of_int m.Gmp_msg.origin)
     | "sender" -> Some (string_of_int m.Gmp_msg.sender)
     | "gid" -> Some (string_of_int m.Gmp_msg.group_id)
     | "subject" -> Some (string_of_int m.Gmp_msg.subject)
     | "members" ->
       Some (String.concat "," (List.map string_of_int m.Gmp_msg.members))
     | "relseq" ->
       (match Rel_udp.inspect (Message.payload msg) with
        | Some (_, seq, _) -> Some (string_of_int seq)
        | None -> None)
     | _ -> None)

(* Rewriting fields re-encodes the inner GMP message inside a raw rel
   wrapper (rewriting reliable-layer state would be incoherent). *)
let set_field msg field value =
  match (parse msg, int_of_string_opt value) with
  | `Gmp m, Some v ->
    let updated =
      match field with
      | "origin" when fits ~max:u16_max v -> Some { m with Gmp_msg.origin = v }
      | "sender" when fits ~max:u16_max v -> Some { m with Gmp_msg.sender = v }
      | "gid" when fits ~max:u32_max v -> Some { m with Gmp_msg.group_id = v }
      | "subject" when fits ~max:u16_max v -> Some { m with Gmp_msg.subject = v }
      | _ -> None
    in
    (match updated with
     | Some m ->
       Message.set_payload msg (Rel_udp.wrap_raw (Gmp_msg.encode m));
       true
     | None -> false)
  | _ -> false

let generate args =
  let members =
    match List.assoc_opt "members" args with
    | None -> Some []
    | Some s ->
      let ids = List.filter_map int_of_string_opt (String.split_on_char ',' s) in
      if List.for_all (fits ~max:u16_max) ids && fits ~max:u16_max (List.length ids)
      then Some ids
      else None
  in
  match
    ( Option.bind (List.assoc_opt "type" args) Gmp_msg.mtype_of_string,
      int_arg args "origin" ~max:u16_max, int_arg args "sender" ~max:u16_max,
      int_arg args "gid" ~max:u32_max, int_arg args "subject" ~max:u16_max, members )
  with
  | Some mtype, Some origin, Some sender, Some group_id, Some subject, Some members ->
    let m = Gmp_msg.make ~mtype ~origin ~sender ~group_id ~subject ~members () in
    let msg = Message.create (Rel_udp.wrap_raw (Gmp_msg.encode m)) in
    Message.set_attr msg "proto" "gmp";
    (match List.assoc_opt "dst" args with
     | Some dst -> Message.set_attr msg Pfi_netsim.Network.dst_attr dst
     | None -> ());
    Some msg
  | _ -> None

let fields msg =
  match parse msg with
  | `Malformed -> []
  | `Rel_ack seq -> [ ("type", "RACK"); ("relseq", string_of_int seq) ]
  | `Gmp m ->
    [ ("type", Gmp_msg.mtype_to_string m.Gmp_msg.mtype);
      ("origin", string_of_int m.Gmp_msg.origin);
      ("sender", string_of_int m.Gmp_msg.sender);
      ("gid", string_of_int m.Gmp_msg.group_id);
      ("subject", string_of_int m.Gmp_msg.subject);
      ("members", String.concat "," (List.map string_of_int m.Gmp_msg.members)) ]

let stub =
  { Pfi_core.Stubs.protocol = "gmp";
    msg_type;
    describe;
    get_field;
    set_field;
    generate;
    fields }

let register () = Pfi_core.Stubs.register stub
