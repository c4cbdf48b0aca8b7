(** The conformance catalog: re-discovering the paper's TCP quirk
    tables and GMP bug tables from traces.

    The paper's central claim is that script-driven fault injection
    below an unmodified transport re-discovers each vendor's
    undocumented behaviour — SunOS/AIX/NeXT retransmit 12 times with
    exponential backoff capped at 64 s and then RST, Solaris retries 9
    times off a global error counter and closes silently, SunOS pads
    keep-alive probes with a garbage byte, the zero-window probe
    ceiling is 60 s on BSD stacks but 56 s on Solaris, and so on.
    This module states every such quirk as a {!row} of a declarative
    catalog: one fault-injection trial configuration (vendor profile,
    workload phase, failure model, filter side) plus an oracle that
    measures the quirk from the recorded {!Pfi_engine.Trace.t} alone —
    the verdict of the trial's service oracle is deliberately ignored,
    because most quirks only manifest while the service guarantee is
    being violated.  Beyond the quirk tables the catalog carries the
    rest of the paper's TCP experiments (Table 2, Figure 4, Experiment
    5), two ablations, and the GMP experiments of Tables 5–8 over
    {!Gmp_harness}'s Figure 5 testbed — with a bug row and a fixed row
    where the paper has both — so every artifact [pfi_run run] prints
    is a set of catalog sections.

    {!run} executes a catalog through {!Campaign.run_trial} on any
    {!Executor.t}; per-row seeds are pure functions of the campaign
    seed and the row id, and results come back in catalog order, so
    the rendered report ({!to_markdown}, {!to_json}) is byte-identical
    for any [--jobs] width.  [EXPERIMENTS_tcp.md] is the committed
    rendering of the full {!catalog}; the CLI regenerates it with
    [pfi_run matrix --report EXPERIMENTS_tcp.md]. *)

(** {1 Checks and rows} *)

type check = {
  ck_label : string;  (** what the oracle measured, e.g. ["backoff ceiling"] *)
  ck_paper : string;  (** the value the paper's table records *)
  ck_measured : string;  (** the value re-discovered from the trace *)
  ck_pass : bool;
}
(** One cell pair of a quirk table: paper value vs measured value. *)

type row
(** One catalog entry: a trial configuration plus the trace oracle
    that re-measures the quirk.  Oracles bake in the {e row} variant's
    expected values, so running a TCP row against a different profile
    ({!run}'s [profile_override]) or a GMP bug row against the fixed
    daemon ({!check_against}) makes its checks fail — the negative
    control that proves the catalog actually discriminates between
    variants. *)

val row_id : row -> string
(** Stable identifier, ["SECTION/VENDOR-SLUG"] (e.g.
    ["rexmt/sunos-4.1.3"]).  Unique within {!catalog}; the per-row
    trial seed is derived from it. *)

val row_section : row -> string
(** Section key.  The vendor matrix: ["rexmt"], ["counter"],
    ["keepalive"], ["zerowin"], ["handshake"], ["teardown"].  The rest
    of the paper's TCP experiments: ["rto-delay-3s"], ["rto-delay-8s"]
    (Table 2 and Figure 4), ["counter-probe"] (the §4.1 35 s
    probe), ["keepalive-acked"] (Table 3), ["zerowin-dropped"],
    ["zerowin-outage"] (Table 4), ["reorder"] (Experiment 5).  The
    ablations: ["ablation-karn"], ["ablation-counter"].  The GMP
    tables: ["gmp-self-death"], ["gmp-kick-cycle"], ["gmp-ack-drop"],
    ["gmp-commit-drop"] (Table 5), ["gmp-partition"],
    ["gmp-separation"] (Table 6), ["gmp-proclaim"] (Table 7),
    ["gmp-timer"] (Table 8). *)

val row_vendor : row -> string
(** The variant slug: a TCP row's {!Pfi_tcp.Profile.slug} (ablation
    rows run custom profiles, e.g. ["karn-off"]), or a GMP row's
    ["bug"] (one of the paper's gmd bugs implanted) or ["fixed"]. *)

val catalog : unit -> row list
(** Every row, in report order: the six vendor-matrix sections crossed
    with all four paper vendors (paper Tables 1–4 plus the
    handshake/teardown lifecycle sections that exercise the rest of
    the 10-state FSM), then the remaining experiment sections listed
    under {!row_section}. *)

val find : string -> row option
(** The catalog row with this {!row_id}. *)

val golden_catalog : unit -> row list
(** A two-row subset (retransmission exhaustion for SunOS 4.1.3 and
    Solaris 2.3) small enough for golden tests yet still covering both
    vendor families. *)

(** {1 Running} *)

type result = {
  res_id : string;
  res_section : string;
  res_vendor : string;
      (** display name, e.g. ["SunOS 4.1.3"] or ["gmd (fixed)"] *)
  res_quirk : string;  (** one-line statement of the quirk under test *)
  res_seed : int64;  (** the derived per-row trial seed *)
  res_checks : check list;
  res_pass : bool;  (** all checks passed *)
}

type report = {
  rep_seed : int64;  (** campaign seed the row seeds derive from *)
  rep_profile_override : string option;
  rep_results : result list;  (** catalog order *)
}

val run :
  ?executor:Executor.t -> ?seed:int64 -> ?profile_override:string ->
  row list -> report
(** Runs every row as an isolated {!Campaign.run_trial} with trace
    capture, maps rows through the executor (default
    {!Executor.sequential}), and evaluates each row's oracle over its
    trace.  [seed] defaults to {!Campaign.default_seed}.
    [profile_override] builds every TCP harness with the named profile
    ({!Pfi_tcp.Profile.find} name or slug) {e while keeping each row's
    own expectations} — the wrong-knob negative control; GMP rows
    ignore it.  Raises
    [Invalid_argument] on an unknown override name. *)

val trial_trace : ?seed:int64 -> row -> Pfi_engine.Trace.t
(** Runs one row's trial exactly as {!run} does (same derived seed,
    no profile override) and returns its trace — [pfi_run msc] draws
    the §4.1 ladder from the Solaris [counter-probe] row. *)

val check_against : ?seed:int64 -> row -> trial_of:row -> check list
(** [row]'s oracle over the trial {!run} gives [trial_of] — the GMP
    negative control, where a bug row's expectations must fail against
    the fixed daemon's trial and vice versa. *)

val passed : report -> int
(** Rows whose every check passed. *)

val total : report -> int

val check_counts : report -> int * int
(** [(passed, total)] over individual checks rather than rows. *)

(** {1 Reports} *)

val to_markdown : report -> string
(** The quirk-table report: one markdown table per section with
    paper-value / measured-value / verdict columns.  Deterministic —
    same report, same bytes — and independent of executor width. *)

val to_json : report -> Repro.Json.t
(** Machine-readable form (format ["pfi-conformance/1"]): campaign
    seed, optional profile override, and one record per row with its
    checks.  Deterministic like {!to_markdown}. *)
