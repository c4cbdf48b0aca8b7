open Pfi_stack

type mtype =
  | Heartbeat
  | Proclaim
  | Join
  | Membership_change
  | Mc_ack
  | Mc_nak
  | Commit
  | Dead

type t = {
  mtype : mtype;
  origin : int;
  sender : int;
  group_id : int;
  subject : int;
  members : int list;
}

let make ~mtype ~origin ~sender ?(group_id = 0) ?(subject = 0) ?(members = []) () =
  { mtype; origin; sender; group_id; subject; members }

let mtype_to_string = function
  | Heartbeat -> "HEARTBEAT"
  | Proclaim -> "PROCLAIM"
  | Join -> "JOIN"
  | Membership_change -> "MEMBERSHIP_CHANGE"
  | Mc_ack -> "ACK"
  | Mc_nak -> "NAK"
  | Commit -> "COMMIT"
  | Dead -> "DEAD"

let mtype_of_string = function
  | "HEARTBEAT" -> Some Heartbeat
  | "PROCLAIM" -> Some Proclaim
  | "JOIN" -> Some Join
  | "MEMBERSHIP_CHANGE" -> Some Membership_change
  | "ACK" -> Some Mc_ack
  | "NAK" -> Some Mc_nak
  | "COMMIT" -> Some Commit
  | "DEAD" -> Some Dead
  | _ -> None

let mtype_code = function
  | Heartbeat -> 1
  | Proclaim -> 2
  | Join -> 3
  | Membership_change -> 4
  | Mc_ack -> 5
  | Mc_nak -> 6
  | Commit -> 7
  | Dead -> 8

let mtype_of_code = function
  | 1 -> Some Heartbeat
  | 2 -> Some Proclaim
  | 3 -> Some Join
  | 4 -> Some Membership_change
  | 5 -> Some Mc_ack
  | 6 -> Some Mc_nak
  | 7 -> Some Commit
  | 8 -> Some Dead
  | _ -> None

(* Wire layout, big-endian at fixed offsets:
   u8 type code, u16 origin, u16 sender, u32 group id, u16 subject,
   u16 member count, then count × u16 members: 13 + 2·count bytes. *)
let origin_offset = 1
let sender_offset = 3
let gid_offset = 5
let subject_offset = 9
let count_offset = 11
let fixed_size = 13

let wire_size ~count = fixed_size + (2 * count)

let set_u16 b off v =
  if v land lnot 0xffff <> 0 then
    invalid_arg (Printf.sprintf "Gmp_msg.encode: %d is not a u16" v);
  Bytes.set_uint16_be b off v

let set_u32 b off v =
  if v land lnot 0xffffffff <> 0 then
    invalid_arg (Printf.sprintf "Gmp_msg.encode: %d is not a u32" v);
  Bytes.set_uint16_be b off (v lsr 16);
  Bytes.set_uint16_be b (off + 2) (v land 0xffff)

let rec put_members b off = function
  | [] -> ()
  | m :: rest ->
    set_u16 b off m;
    put_members b (off + 2) rest

let encode t =
  let count = List.length t.members in
  let b = Bytes.create (wire_size ~count) in
  Bytes.set_uint8 b 0 (mtype_code t.mtype);
  set_u16 b origin_offset t.origin;
  set_u16 b sender_offset t.sender;
  set_u32 b gid_offset t.group_id;
  set_u16 b subject_offset t.subject;
  set_u16 b count_offset count;
  put_members b fixed_size t.members;
  b

(* members [0..i] consed onto [acc], read back to front so the list
   comes out in wire order without a reverse *)
let rec get_members data i acc =
  if i < 0 then acc
  else get_members data (i - 1) (Bytes.get_uint16_be data (fixed_size + (2 * i)) :: acc)

let decode data =
  let n = Bytes.length data in
  if n < fixed_size then Error "gmp: truncated message"
  else begin
    let count = Bytes.get_uint16_be data count_offset in
    if n < wire_size ~count then Error "gmp: truncated message"
    else
      let code = Bytes.get_uint8 data 0 in
      match mtype_of_code code with
      | None -> Error (Printf.sprintf "gmp: unknown message type %d" code)
      | Some mtype ->
        Ok
          { mtype;
            origin = Bytes.get_uint16_be data origin_offset;
            sender = Bytes.get_uint16_be data sender_offset;
            group_id =
              (Bytes.get_uint16_be data gid_offset lsl 16)
              lor Bytes.get_uint16_be data (gid_offset + 2);
            subject = Bytes.get_uint16_be data subject_offset;
            members = get_members data (count - 1) [] }
  end

let to_message t ~dst =
  let msg = Message.create (encode t) in
  Message.set_attr msg Pfi_netsim.Network.dst_attr dst;
  Message.set_attr msg "proto" "gmp";
  msg

let of_message msg = decode (Message.payload msg)

let describe t =
  let members =
    if t.members = [] then ""
    else
      Printf.sprintf " members=[%s]"
        (String.concat "," (List.map string_of_int t.members))
  in
  let subject = if t.subject = 0 then "" else Printf.sprintf " subject=%d" t.subject in
  Printf.sprintf "%s origin=%d sender=%d gid=%d%s%s" (mtype_to_string t.mtype)
    t.origin t.sender t.group_id subject members
