(** Packet recognition/generation stubs.

    A stub encapsulates knowledge of a target protocol's packet format:
    recognising a message's type, describing it for logs, reading and
    writing header fields, and generating fresh packets of a given type.
    "The packet stubs are written by people who know the packet formats
    of the target protocol" — here each protocol library exports one and
    registers it so filter scripts can work with symbolic names instead
    of byte offsets. *)

type t = {
  protocol : string;
  msg_type : Pfi_stack.Message.t -> string;
      (** Symbolic type of the message, e.g. ["ACK"], ["HEARTBEAT"];
          ["?"] when unrecognisable. *)
  describe : Pfi_stack.Message.t -> string;
      (** One-line rendering for [msg_log]. *)
  get_field : Pfi_stack.Message.t -> string -> string option;
      (** Read a named header field ("seq", "window", ...). *)
  set_field : Pfi_stack.Message.t -> string -> string -> bool;
      (** Rewrite a named header field in place; false if unknown or
          not rewritable.  This is the scripts' message-modification
          primitive. *)
  generate : (string * string) list -> Pfi_stack.Message.t option;
      (** Build a fresh packet from key/value arguments; None if the
          arguments don't describe a generable packet.  Only stateless
          packets can be generated here — stateful ones must come from
          the driver layer (paper, §2.1). *)
  fields : Pfi_stack.Message.t -> (string * string) list;
      (** Structured key/value rendering of the interesting header
          fields, attached to trace entries ([msg_log], PFI verdict
          events) so JSONL exports are machine-comparable. *)
}

val raw : t
(** Fallback stub for unknown protocols: type ["RAW"], hex description,
    no fields, generates from a ["data"] argument. *)

(** {1 Field ranges}

    A stub writes only values its header field can carry: [set_field]
    returns false and [generate] returns None for anything outside the
    field's unsigned wire range, instead of wrapping it. *)

val u16_max : int
val u32_max : int

val fits : max:int -> int -> bool
(** [v] is in [0, max]. *)

val int_arg : (string * string) list -> string -> max:int -> int option
(** A [generate] argument: [Some 0] when [key] is absent or not an
    integer, [None] when it is an integer outside [0, max]. *)

(** {1 Registry} *)

val register : t -> unit
val find : string -> t option
val find_exn : string -> t
val registered : unit -> string list
