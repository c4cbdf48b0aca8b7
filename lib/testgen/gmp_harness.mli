(** A campaign harness for the group membership protocol.

    Topology: the paper's Figure 5 testbed — [n1..nN] daemons, each
    running gmd / reliable UDP / PFI / device, with every PFI layer
    connected to the others and sharing one blackboard.  [n1]'s layer
    carries the generated fault scripts; the others are reached from it
    with {!Pfi_core.Pfi_layer.peer}.  The fault window is transient —
    [n1]'s scripts are cleared two-thirds into the horizon — so a
    correct implementation must re-converge.

    Oracle (the protocol's specification, §4.2):
    - all daemons agree on one final view containing every member;
    - no heartbeat-expect timer ever fired while IN_TRANSITION
      ([gmp.spurious-timeout] must be absent);
    - no proclaim storm ([gmp.proclaim-fwd] stays bounded — the
      forwarding loop of Table 7 trips this).

    With {!Pfi_gmp.Gmd.bugs} flags enabled, the campaign (or even its
    fault-free control trial, for the proclaim loop) rediscovers the
    paper's implanted defects. *)

val harness :
  ?n:int -> ?late:string list -> ?heal:bool -> ?bugs:Pfi_gmp.Gmd.bugs ->
  unit -> Harness_intf.packed
(** A packed {!Harness_intf.HARNESS}: registry name ["gmp"] (or
    ["gmp-buggy"] with any bug implanted), spec {!Spec.gmp}, target
    ["n2"].  [n] daemons (default 3) start one second apart, except the
    [late] ones (default none), which start at {!late_start}.  [heal]
    (default true) clears [n1]'s filters at 300 s. *)

val default_horizon : Pfi_engine.Vtime.t

val late_start : Pfi_engine.Vtime.t
(** When the harness's [late] daemons start (30 s). *)

val default_seed : int64
(** The GMP campaign seed (57) — kept distinct from
    {!Campaign.default_seed} so the two stock campaigns do not share
    trial seeds. *)

val run_campaign :
  ?bugs:Pfi_gmp.Gmd.bugs -> ?seed:int64 -> ?executor:Executor.t -> unit ->
  (Campaign.outcome list, string) result
(** [Error reason] when even the fault-free control trial violates the
    oracle (which is itself a finding when bugs are implanted). *)
