open Pfi_engine
open Pfi_stack

let header_size = 7
let reliable_attr = "rel"

let kind_raw = 0
let kind_data = 1
let kind_ack = 2

type pending = {
  seq : int;
  dst : string;
  wire : Bytes.t;  (* encoded rel-data packet, ready to resend *)
  attrs : (string * string) list;
  timer : Timer.t;
  mutable tries : int;
}

type t = {
  sim : Sim.t;
  node : string;
  retry_interval : Vtime.t;
  max_retries : int;
  mutable the_layer : Layer.t option;
  mutable next_seq : int;
  pending : (int, pending) Hashtbl.t;  (* by seq *)
  seen : (string * int, unit) Hashtbl.t;  (* dedup of (src, seq) *)
  mutable gave_up : int;
}

let layer t = match t.the_layer with Some l -> l | None -> assert false

(* 16-bit ones' complement over kind, seq and the payload bytes
   [data.[from..]]: the UDP checksum this layer's real-world counterpart
   would have.  Corrupted packets are dropped on receipt, so
   fault-injected bit flips surface as loss, not as garbage protocol
   input. *)
let rec fold16 sum = if sum lsr 16 = 0 then sum else fold16 ((sum land 0xffff) + (sum lsr 16))

let rec add_bytes data i n sum =
  if i >= n then sum else add_bytes data (i + 1) n (sum + Bytes.get_uint8 data i)

let checksum ~kind ~seq data ~from =
  let sum = kind + (seq land 0xffff) + ((seq lsr 16) land 0xffff) in
  lnot (fold16 (add_bytes data from (Bytes.length data) sum)) land 0xffff

(* Wire layout: u8 kind, u32 seq, u16 checksum, payload. *)
let seq_offset = 1
let checksum_offset = 5

let wrap ~kind ~seq payload =
  let n = Bytes.length payload in
  let b = Bytes.create (header_size + n) in
  Bytes.set_uint8 b 0 kind;
  Bytes.set_uint16_be b seq_offset ((seq lsr 16) land 0xffff);
  Bytes.set_uint16_be b (seq_offset + 2) (seq land 0xffff);
  Bytes.blit payload 0 b header_size n;
  Bytes.set_uint16_be b checksum_offset (checksum ~kind ~seq b ~from:header_size);
  b

(* The one validation path: length and checksum checked in place,
   nothing copied out.  Returns the raw (kind, seq); the payload starts
   at offset {!header_size}. *)
let inspect_header data =
  if Bytes.length data < header_size then None
  else begin
    let kind = Bytes.get_uint8 data 0 in
    let seq =
      (Bytes.get_uint16_be data seq_offset lsl 16)
      lor Bytes.get_uint16_be data (seq_offset + 2)
    in
    if checksum ~kind ~seq data ~from:header_size
       <> Bytes.get_uint16_be data checksum_offset
    then None
    else Some (kind, seq)
  end

let payload_of data = Bytes.sub data header_size (Bytes.length data - header_size)

let inspect data =
  match inspect_header data with
  | None -> None
  | Some (kind, seq) ->
    if kind = kind_raw then Some (`Raw, seq, payload_of data)
    else if kind = kind_data then Some (`Data, seq, payload_of data)
    else if kind = kind_ack then Some (`Ack, seq, payload_of data)
    else None

let wrap_raw payload = wrap ~kind:kind_raw ~seq:0 payload

let transmit t ~dst ~attrs wire =
  let msg = Message.create (Bytes.copy wire) in
  List.iter (fun (k, v) -> Message.set_attr msg k v) attrs;
  Message.set_attr msg Pfi_netsim.Network.dst_attr dst;
  Layer.send_down (layer t) msg

let on_retry t seq () =
  match Hashtbl.find_opt t.pending seq with
  | None -> ()
  | Some p ->
    if p.tries >= t.max_retries then begin
      (* best effort exhausted: silently give up, like the original *)
      Hashtbl.remove t.pending seq;
      t.gave_up <- t.gave_up + 1;
      Sim.record t.sim ~node:t.node ~tag:"rel.give-up"
        (Printf.sprintf "seq=%d dst=%s" p.seq p.dst)
    end
    else begin
      p.tries <- p.tries + 1;
      transmit t ~dst:p.dst ~attrs:p.attrs p.wire;
      Timer.arm p.timer ~delay:t.retry_interval
    end

let on_push t msg =
  let dst =
    match Message.get_attr msg Pfi_netsim.Network.dst_attr with
    | Some d -> d
    | None -> failwith "rel_udp: message has no destination"
  in
  let reliable = Message.get_attr msg reliable_attr = Some "1" in
  if not reliable then begin
    Message.set_payload msg (wrap ~kind:kind_raw ~seq:0 (Message.payload msg));
    Layer.send_down (layer t) msg
  end
  else begin
    t.next_seq <- t.next_seq + 1;
    let seq = t.next_seq in
    let wire = wrap ~kind:kind_data ~seq (Message.payload msg) in
    let attrs = List.remove_assoc Pfi_netsim.Network.dst_attr (Message.attrs msg) in
    let timer =
      Timer.create t.sim ~name:"rel-retry"
        ~callback:(fun () -> on_retry t seq ())
    in
    let p = { seq; dst; wire; attrs; timer; tries = 0 } in
    Hashtbl.replace t.pending seq p;
    transmit t ~dst ~attrs wire;
    Timer.arm timer ~delay:t.retry_interval
  end

let on_pop t msg =
  let data = Message.payload msg in
  match inspect_header data with
  | None -> ()  (* malformed: drop *)
  | Some (kind, seq) ->
    let src =
      Option.value (Message.get_attr msg Pfi_netsim.Network.src_attr) ~default:"?"
    in
    if kind = kind_raw then begin
      Message.set_payload msg (payload_of data);
      Layer.deliver_up (layer t) msg
    end
    else if kind = kind_ack then begin
      match Hashtbl.find_opt t.pending seq with
      | Some p ->
        Timer.disarm p.timer;
        Hashtbl.remove t.pending seq
      | None -> ()
    end
    else if kind = kind_data then begin
      (* always (re-)acknowledge, deliver only the first copy *)
      let ack = Message.create (wrap ~kind:kind_ack ~seq Bytes.empty) in
      Message.set_attr ack Pfi_netsim.Network.dst_attr src;
      Layer.send_down (layer t) ack;
      if not (Hashtbl.mem t.seen (src, seq)) then begin
        Hashtbl.replace t.seen (src, seq) ();
        Message.set_payload msg (payload_of data);
        Layer.deliver_up (layer t) msg
      end
    end

let create ~sim ~node ?(retry_interval = Vtime.ms 500) ?(max_retries = 3) () =
  let t =
    { sim; node; retry_interval; max_retries; the_layer = None; next_seq = 0;
      pending = Hashtbl.create 32; seen = Hashtbl.create 256; gave_up = 0 }
  in
  let l =
    Layer.create ~name:"rel-udp" ~node
      { on_push = (fun _ msg -> on_push t msg);
        on_pop = (fun _ msg -> on_pop t msg) }
  in
  t.the_layer <- Some l;
  t

let pending_count t = Hashtbl.length t.pending
let give_up_count t = t.gave_up
