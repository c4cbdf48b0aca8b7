(** Reliable communication layer over the (unreliable) network.

    The student GMP "implemented a reliable communication layer using
    retransmission timers and sequence numbers" on top of UDP; the PFI
    tool was inserted {e below} it, at the UDP send/receive calls — so
    injected faults also hit retransmissions.  This layer reproduces
    that design:

    - each payload sent reliably gets a per-destination sequence number,
      is retransmitted at a fixed interval up to a bounded number of
      times, and is acknowledged by the receiver;
    - the receiver suppresses duplicates;
    - unreliable sends (heartbeats) bypass all of that.

    Wire format: 1 byte kind (0 raw, 1 data, 2 ack), 4 bytes sequence
    number, 2 bytes checksum (ones' complement over the rest), payload.
    Packets failing the checksum are dropped silently, as UDP would. *)

open Pfi_engine

val header_size : int

type t

val create :
  sim:Sim.t -> node:string ->
  ?retry_interval:Vtime.t -> ?max_retries:int -> unit -> t
(** Defaults: 500 ms retry interval, 3 retries. *)

val layer : t -> Pfi_stack.Layer.t
(** Downward messages must carry {!Pfi_netsim.Network.dst_attr} and the
    attribute [rel=1] to be sent reliably (anything else passes as raw).
    Upward messages are unwrapped and handed up; ACKs are consumed. *)

val reliable_attr : string
(** ["rel"]: set to ["1"] on a message to request reliable delivery. *)

val kind_raw : int
val kind_data : int
val kind_ack : int
(** The wire kind bytes. *)

val wrap : kind:int -> seq:int -> Bytes.t -> Bytes.t
(** One exact-size packet: the header, its checksum, then a copy of the
    payload.  [seq] must fit in 32 bits. *)

val wrap_raw : Bytes.t -> Bytes.t
(** [wrap ~kind:kind_raw ~seq:0] — for stubs that generate spontaneous
    messages below the reliable layer. *)

val inspect_header : Bytes.t -> (int * int) option
(** The one validation path for received packets (the layer's own
    receive side, {!inspect} and the GMP stub all use it): checks the
    length and the checksum in place and returns the raw (kind, seq)
    without copying anything.  The payload starts at offset
    {!header_size}.  None on malformed input; an unknown kind with a
    valid checksum is accepted here and left to the caller. *)

val inspect : Bytes.t -> ([ `Raw | `Data | `Ack ] * int * Bytes.t) option
(** {!inspect_header} plus a copy of the payload, for packet stubs that
    must look through the rel header.  None on malformed input or an
    unknown kind. *)

val pending_count : t -> int
(** Transmissions awaiting acknowledgement. *)

val give_up_count : t -> int
(** Messages abandoned after exhausting retries. *)
