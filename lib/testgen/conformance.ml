open Pfi_engine
open Pfi_core
open Pfi_tcp
open Pfi_gmp

type check = {
  ck_label : string;
  ck_paper : string;
  ck_measured : string;
  ck_pass : bool;
}

(* One catalog entry: the trial configuration (a fully-parameterized
   harness plus fault/script/side/horizon) and the oracle that
   re-measures the quirk from the trial trace.  The oracle closes over
   the row's own variant (a TCP vendor profile, or a gmd bug flag), so
   [run ~profile_override] keeps the expectations while swapping the
   TCP stack under test. *)
type row = {
  row_id : string;
  row_section : string;
  row_vendor : string;  (** variant slug *)
  row_name : string;  (** variant display name *)
  row_quirk : string;
  row_harness : Profile.t option -> Harness_intf.packed;
      (** the harness under the optional profile override: TCP rows
          apply it, GMP rows ignore it *)
  cfg_side : Campaign.side;
  cfg_fault : Generator.fault;
  cfg_script : string option;  (** overrides the fault's filter *)
  cfg_arm : (Sim.t -> Pfi_core.Pfi_layer.t -> unit) option;
      (** the trial's {!Campaign.trial.t_arm} hook: fault windows that
          open after the harness heals its filters at 3 min (keep-alive
          probe drops, the two-day outage), second filters, and failure
          models *)
  cfg_horizon : Vtime.t;
  row_oracle : Campaign.outcome -> Trace.t -> check list;
}

let row_id r = r.row_id
let row_section r = r.row_section
let row_vendor r = r.row_vendor

(* ------------------------------------------------------------------ *)
(* Trace measurement helpers                                          *)
(* ------------------------------------------------------------------ *)

(* trace details are "key=value" token lists ("port=32769 n=3 rto=64.000s") *)
let kv detail key =
  String.split_on_char ' ' detail
  |> List.find_map (fun tok ->
         match String.index_opt tok '=' with
         | Some i when String.sub tok 0 i = key ->
           Some (String.sub tok (i + 1) (String.length tok - i - 1))
         | _ -> None)

let kv_exn e key =
  match kv (Trace.detail e) key with
  | Some v -> v
  | None -> "?"

let kv_int e key =
  match kv (Trace.detail e) key with
  | Some v -> ( match int_of_string_opt v with Some n -> n | None -> 0)
  | None -> 0

let client tag trace = Trace.find ~node:"client" ~tag trace

let gaps entries =
  let rec go = function
    | a :: (b :: _ as rest) ->
      Vtime.sub b.Trace.time a.Trace.time :: go rest
    | _ -> []
  in
  go entries

let monotone_nondecreasing vs =
  let rec go = function
    | a :: (b :: _ as rest) -> Vtime.(b >= a) && go rest
    | _ -> true
  in
  go vs

let last = function [] -> None | l -> Some (List.nth l (List.length l - 1))

(* "did the give-up send a RST?" — the engine records tcp.rst-sent at
   the same timestamp as the terminal tcp.closed *)
let failure_action trace =
  match client "tcp.closed" trace with
  | [] -> "still open"
  | closed :: _ ->
    if
      List.exists
        (fun e -> Vtime.equal e.Trace.time closed.Trace.time)
        (client "tcp.rst-sent" trace)
    then "RST"
    else "silent close"

let close_reason trace =
  match client "tcp.closed" trace with
  | [] -> "none"
  | e :: _ -> kv_exn e "reason"

let rst_name b = if b then "RST" else "silent close"

let service_measured (o : Campaign.outcome) =
  match o.Campaign.verdict with
  | Campaign.Tolerated -> "intact"
  | Campaign.Violation d -> "violated: " ^ d

(* ------------------------------------------------------------------ *)
(* Check constructors                                                 *)
(* ------------------------------------------------------------------ *)

let check label ~paper ~measured =
  { ck_label = label; ck_paper = paper; ck_measured = measured;
    ck_pass = String.equal paper measured }

let check_int label ~paper ~measured =
  { ck_label = label;
    ck_paper = string_of_int paper;
    ck_measured = string_of_int measured;
    ck_pass = paper = measured }

let check_at_least label ~floor ~measured =
  { ck_label = label;
    ck_paper = Printf.sprintf "%d or more" floor;
    ck_measured = string_of_int measured;
    ck_pass = measured >= floor }

(* ------------------------------------------------------------------ *)
(* Section oracles                                                    *)
(* ------------------------------------------------------------------ *)

(* paper Table 1: exhaust the retransmission machinery on one stalled
   segment and read off the retry budget, the backoff shape and the
   give-up behaviour *)
let rexmt_oracle (p : Profile.t) _outcome trace =
  let rx = client "tcp.retransmit" trace in
  let retries = List.fold_left (fun acc e -> max acc (kv_int e "n")) 0 rx in
  let rx_gaps = gaps rx in
  [ check_int "retransmissions before giving up"
      ~paper:p.Profile.max_data_retries ~measured:retries;
    check "backoff trend" ~paper:"monotone non-decreasing"
      ~measured:
        (if monotone_nondecreasing rx_gaps then "monotone non-decreasing"
         else "erratic");
    check "backoff ceiling" ~paper:(Vtime.to_string p.Profile.rto_max)
      ~measured:
        (match last rx_gaps with
         | Some g -> Vtime.to_string g
         | None -> "no retransmissions");
    check "failure action" ~paper:(rst_name p.Profile.rst_on_timeout)
      ~measured:(failure_action trace);
    check "close reason" ~paper:"rexmt-exhausted"
      ~measured:(close_reason trace) ]

(* paper Table 2 / §4.1: three ACKs pass, the fourth is delayed 35 s,
   the rest vanish — two messages stall in sequence, and the second
   one's retry budget reveals whether timeouts are counted per message
   or in one global error counter *)
let counter_script =
  {|
if {[msg_type cur_msg] == "ACK"} {
  if {![info exists acks]} { set acks 0 }
  incr acks
  if {$acks == 4} { xDelay cur_msg 35.0 }
  if {$acks > 4} { xDrop cur_msg }
}
|}

(* per-stalled-message retry counts, in first-stall order *)
let stalled_retries trace =
  let groups : (string * int ref) list ref = ref [] in
  List.iter
    (fun e ->
      let seq = kv_exn e "seq" and n = kv_int e "n" in
      match List.assoc_opt seq !groups with
      | Some cell -> cell := max !cell n
      | None -> groups := !groups @ [ (seq, ref n) ])
    (client "tcp.retransmit" trace);
  List.map (fun (_, n) -> !n) !groups

let counter_oracle (p : Profile.t) _outcome trace =
  let groups = stalled_retries trace in
  let accounting =
    match groups with
    | [ m1; m2 ] ->
      if m2 = p.Profile.max_data_retries then
        "per-message (an ACK resets the count)"
      else if m1 + m2 = p.Profile.max_data_retries then
        "global (second message inherits the count)"
      else Printf.sprintf "unrecognized (%d then %d retries)" m1 m2
    | gs -> Printf.sprintf "unrecognized (%d stalled messages)" (List.length gs)
  in
  [ check_int "stalled messages observed" ~paper:2
      ~measured:(List.length groups);
    check "retry accounting"
      ~paper:
        (if p.Profile.global_error_counter then
           "global (second message inherits the count)"
         else "per-message (an ACK resets the count)")
      ~measured:accounting;
    check "failure action" ~paper:(rst_name p.Profile.rst_on_timeout)
      ~measured:(failure_action trace);
    check "close reason" ~paper:"rexmt-exhausted"
      ~measured:(close_reason trace) ]

(* paper Table 3: idle threshold, probe schedule, probe payload (the
   SunOS garbage byte) and the give-up behaviour, measured while every
   probe is swallowed by a send-side filter *)
let keepalive_oracle (p : Profile.t) _outcome trace =
  let probes = client "tcp.keepalive-probe" trace in
  let idle =
    match probes with
    | [] -> "no probes"
    | first :: _ ->
      (* idle = first probe time minus the last segment the client
         received before it (the engine re-arms off last_recv_time) *)
      let before =
        List.filter
          (fun e -> Vtime.(e.Trace.time < first.Trace.time))
          (client "tcp.in" trace)
      in
      (match last before with
       | Some e -> Vtime.to_string (Vtime.sub first.Trace.time e.Trace.time)
       | None -> "no traffic")
  in
  let schedule =
    let probe_gaps = gaps probes in
    if probe_gaps = [] then "single probe"
    else if
      List.for_all (fun g -> Vtime.equal g (List.hd probe_gaps)) probe_gaps
    then "fixed " ^ Vtime.to_string (List.hd probe_gaps)
    else if monotone_nondecreasing probe_gaps then "exponential backoff"
    else "erratic"
  in
  let payload =
    match probes with
    | [] -> "no probes"
    | first :: _ -> (
      match
        List.find_opt
          (fun e -> Vtime.equal e.Trace.time first.Trace.time)
          (client "tcp.out" trace)
      with
      | None -> "probe not emitted"
      | Some e ->
        if kv (Trace.detail e) "len" = Some "1" then "1 garbage byte"
        else "bare ACK")
  in
  let max_probes =
    match p.Profile.keepalive_schedule with
    | Profile.Fixed_interval { max_probes; _ } -> max_probes
    | Profile.Exponential_backoff { max_probes } -> max_probes
  in
  [ check "idle before first probe"
      ~paper:(Vtime.to_string p.Profile.keepalive_idle) ~measured:idle;
    check_int "probes before giving up" ~paper:(max_probes + 1)
      ~measured:(List.length probes);
    check "probe schedule"
      ~paper:
        (match p.Profile.keepalive_schedule with
         | Profile.Fixed_interval { interval; _ } ->
           "fixed " ^ Vtime.to_string interval
         | Profile.Exponential_backoff _ -> "exponential backoff")
      ~measured:schedule;
    check "probe payload"
      ~paper:
        (if p.Profile.keepalive_garbage_byte then "1 garbage byte"
         else "bare ACK")
      ~measured:payload;
    check "failure action" ~paper:(rst_name p.Profile.keepalive_rst_on_fail)
      ~measured:(failure_action trace);
    check "close reason" ~paper:"keepalive-exhausted"
      ~measured:(close_reason trace) ]

(* beyond the paper's tables: the 10-state FSM's opening leg — both
   initial SYNs are dropped, the handshake must complete off the
   retransmission timer *)
let handshake_oracle (_ : Profile.t) outcome trace =
  let retries =
    List.fold_left
      (fun acc e -> max acc (kv_int e "n"))
      0
      (client "tcp.retransmit" trace)
  in
  [ check_int "SYN retransmissions" ~paper:2 ~measured:retries;
    check "connection established" ~paper:"yes"
      ~measured:
        (if
           (* detail is "port=N SYN_SENT -> ESTABLISHED" *)
           List.exists
             (fun e ->
               let d = Trace.detail e in
               String.length d >= 11
               && String.sub d (String.length d - 11) 11 = "ESTABLISHED")
             (client "tcp.state" trace)
         then "yes"
         else "no");
    check "stream delivered" ~paper:"intact"
      ~measured:(service_measured outcome) ]

(* beyond the paper's tables: orderly release — the FSM walk through
   FIN_WAIT_1/FIN_WAIT_2/TIME_WAIT must survive a duplicated FIN, and
   the 2MSL wait must expire on its own *)
let teardown_oracle (_ : Profile.t) outcome trace =
  let transitions =
    List.map
      (fun e ->
        (* "port=N A -> B" *)
        let d = Trace.detail e in
        match String.index_opt d ' ' with
        | Some i -> String.sub d (i + 1) (String.length d - i - 1)
        | None -> d)
      (client "tcp.state" trace)
  in
  let walk =
    match transitions with
    | [] -> "no transitions"
    | first :: _ ->
      let start =
        match String.index_opt first ' ' with
        | Some i -> String.sub first 0 i
        | None -> first
      in
      List.fold_left
        (fun acc t ->
          match String.rindex_opt t ' ' with
          | Some i -> acc ^ " -> " ^ String.sub t (i + 1) (String.length t - i - 1)
          | None -> acc)
        start transitions
  in
  let state_time suffix =
    List.find_opt
      (fun e ->
        let d = Trace.detail e in
        String.length d >= String.length suffix
        && String.sub d (String.length d - String.length suffix)
             (String.length suffix)
           = suffix)
      (client "tcp.state" trace)
  in
  let msl2 =
    match (state_time "-> TIME_WAIT", state_time "TIME_WAIT -> CLOSED") with
    | Some enter, Some leave ->
      Vtime.to_string (Vtime.sub leave.Trace.time enter.Trace.time)
    | _ -> "TIME_WAIT not traversed"
  in
  [ check "client FSM walk"
      ~paper:
        "SYN_SENT -> ESTABLISHED -> FIN_WAIT_1 -> FIN_WAIT_2 -> TIME_WAIT \
         -> CLOSED"
      ~measured:walk;
    check "2MSL wait" ~paper:(Vtime.to_string (Vtime.minutes 1)) ~measured:msl2;
    check "close reason" ~paper:"time-wait-done" ~measured:(close_reason trace);
    check "stream delivered" ~paper:"intact"
      ~measured:(service_measured outcome) ]

(* a check whose paper column states a bound rather than a value *)
let check_bound label ~paper ~measured pass =
  { ck_label = label; ck_paper = paper; ck_measured = measured; ck_pass = pass }

let is_data e = String.starts_with ~prefix:"DATA " (Trace.detail e)

let still_open trace =
  match client "tcp.closed" trace with
  | [] -> "still open"
  | e :: _ -> "closed (" ^ kv_exn e "reason" ^ ")"

(* the segment the client was still retransmitting when it gave up:
   its original transmission (the first DATA the client emitted with
   that sequence number) followed by every retransmission of it *)
let stalled_segment trace =
  let rx = client "tcp.retransmit" trace in
  match last rx with
  | None -> []
  | Some final ->
    let seq = kv (Trace.detail final) "seq" in
    let original =
      List.find_opt
        (fun e -> is_data e && kv (Trace.detail e) "seq" = seq)
        (client "tcp.out" trace)
    in
    Option.to_list original
    @ List.filter (fun e -> kv (Trace.detail e) "seq" = seq) rx

let series_string = function
  | [] -> "no retransmissions"
  | gs ->
    String.concat " "
      (List.map (fun g -> Printf.sprintf "%g" (Vtime.to_sec_f g)) gs)
    ^ " s"

(* paper Table 2: the BSD stacks' first retransmission under 3 s ACK
   delays, i.e. the RTO they adapted to the apparent round trip *)
let table2_first_rexmt =
  [ ("SunOS 4.1.3", 6.5); ("AIX 3.2.3", 8.0); ("NeXT Mach", 5.0) ]

(* paper Table 2 and Figure 4: thirty ACKs arrive [delay] late, then
   the client's data vanishes; the stalled segment's retransmission
   schedule shows whether the RTO adapted to the apparent round trip *)
let rto_delay_oracle ~delay (p : Profile.t) _outcome trace =
  let stalled = stalled_segment trace in
  let series = gaps stalled in
  let retries =
    List.length (List.filter (fun e -> e.Trace.tag = "tcp.retransmit") stalled)
  in
  let first = match series with g :: _ -> Some g | [] -> None in
  let measured =
    match first with Some g -> Vtime.to_string g | None -> "no retransmissions"
  in
  let first_check =
    match List.assoc_opt p.Profile.name table2_first_rexmt with
    | Some s when Vtime.equal delay (Vtime.sec 3) ->
      check "first retransmission"
        ~paper:(Vtime.to_string (Vtime.of_sec_f s))
        ~measured
    | _ when p.Profile.use_jacobson ->
      check_bound "first retransmission"
        ~paper:("over the " ^ Vtime.to_string delay ^ " delay (adapted)")
        ~measured
        (match first with Some g -> Vtime.(g > delay) | None -> false)
    | _ ->
      check_bound "first retransmission"
        ~paper:("under the " ^ Vtime.to_string delay ^ " delay (not adapted)")
        ~measured
        (match first with Some g -> Vtime.(g < delay) | None -> false)
  in
  let max_retries = p.Profile.max_data_retries in
  [ first_check;
    (if p.Profile.global_error_counter then
       check_bound "retransmissions before giving up"
         ~paper:(Printf.sprintf "fewer than %d (closed early)" max_retries)
         ~measured:(string_of_int retries)
         (retries > 0 && retries < max_retries)
     else
       check_int "retransmissions before giving up" ~paper:max_retries
         ~measured:retries);
    check_bound "backoff series (Figure 4)" ~paper:"non-decreasing"
      ~measured:(series_string series)
      (series <> [] && monotone_nondecreasing series);
    check "failure action" ~paper:(rst_name p.Profile.rst_on_timeout)
      ~measured:(failure_action trace) ]

(* paper §4.1: m1's retransmissions before its 35 s-delayed ACK *)
let paper_m1_retries = 6

(* the paper's exact global-error-counter probe: thirty segments pass,
   m1's ACK is delayed 35 s, everything the client sends after m1 is
   dropped.  A global counter charges m1's timeouts against m2 *)
let counter_probe_oracle (p : Profile.t) _outcome trace =
  let groups = stalled_retries trace in
  let nth i = Option.value (List.nth_opt groups i) ~default:0 in
  let max_retries = p.Profile.max_data_retries in
  [ check_int "stalled messages observed" ~paper:2
      ~measured:(List.length groups) ]
  @ (if p.Profile.global_error_counter then
       [ check_int "m1 retransmissions before its ACK arrived"
           ~paper:paper_m1_retries ~measured:(nth 0);
         check_int "m2 retransmissions before the connection dropped"
           ~paper:(max_retries - paper_m1_retries) ~measured:(nth 1) ]
     else
       [ check_int "m2 retransmissions before the connection dropped"
           ~paper:max_retries ~measured:(nth 1) ])
  @ [ check "failure action" ~paper:(rst_name p.Profile.rst_on_timeout)
        ~measured:(failure_action trace);
      check "close reason" ~paper:"rexmt-exhausted"
        ~measured:(close_reason trace) ]

(* paper Table 3, probes answered: each ACKed probe re-arms the idle
   timer, so probing repeats at the idle threshold for as long as the
   peer answers *)
let keepalive_acked_oracle (p : Profile.t) _outcome trace =
  let probes = client "tcp.keepalive-probe" trace in
  let idles =
    List.sort_uniq compare
      (List.filter_map
         (fun probe ->
           (* the last segment the client received before this probe *)
           match
             last
               (List.filter
                  (fun e -> Vtime.(e.Trace.time < probe.Trace.time))
                  (client "tcp.in" trace))
           with
           | Some e -> Some (Vtime.sub probe.Trace.time e.Trace.time)
           | None -> None)
         probes)
  in
  [ check_at_least "probes answered" ~floor:3 ~measured:(List.length probes);
    check "idle before each probe"
      ~paper:(Vtime.to_string p.Profile.keepalive_idle)
      ~measured:
        (match idles with
         | [] -> "no probes"
         | is -> String.concat ", " (List.map Vtime.to_string is));
    check "connection" ~paper:"still open" ~measured:(still_open trace) ]

(* paper Table 4: the persist timer keeps probing a closed window and
   never gives up, whether or not the probes are answered *)
let zerowin_oracle ~min_probes (p : Profile.t) _outcome trace =
  let probes = client "tcp.persist-probe" trace in
  [ check "probe-interval ceiling"
      ~paper:(Vtime.to_string p.Profile.persist_max)
      ~measured:
        (match last probes with
         | Some e -> kv_exn e "interval"
         | None -> "no probes");
    check "probe-interval trend" ~paper:"monotone non-decreasing"
      ~measured:
        (if monotone_nondecreasing (gaps probes) then
           "monotone non-decreasing"
         else "erratic");
    check_at_least "persist probes observed" ~floor:min_probes
      ~measured:(List.length probes);
    check "gives up?" ~paper:"probes forever"
      ~measured:
        (match client "tcp.closed" trace with
         | [] -> "probes forever"
         | e :: _ -> "closes (" ^ kv_exn e "reason" ^ ")") ]

(* paper Table 4's unplugged Ethernet: the client is cut off both ways
   for two days; probing must resume once it is reconnected *)
let outage_oracle ~until _p _outcome trace =
  let resumed =
    List.filter
      (fun e ->
        Vtime.(
          e.Trace.time >= until
          && e.Trace.time < Vtime.add until (Vtime.minutes 10)))
      (Trace.find ~node:"server" ~tag:"tcp.in" trace)
  in
  [ check_at_least "probes delivered within 10 min of reconnection"
      ~floor:5 ~measured:(List.length resumed);
    check "connection after the outage" ~paper:"still open"
      ~measured:(still_open trace) ]

(* paper §4.1, Experiment 5: the first DATA is held back, so the
   second reaches the server ahead of it; the server (same vendor)
   must queue it, because its retransmissions are dropped *)
let reorder_oracle _p outcome trace =
  let seqs =
    List.map
      (fun e -> kv_int e "seq")
      (List.filter is_data (Trace.find ~node:"server" ~tag:"tcp.in" trace))
  in
  [ check "segment overtaken in flight" ~paper:"yes"
      ~measured:
        (match seqs with
         | first :: rest when List.exists (fun s -> s < first) rest -> "yes"
         | _ -> "no");
    check "stream delivered" ~paper:"intact"
      ~measured:(service_measured outcome) ]

(* ablation A: Karn's rule keeps ambiguous samples (a retransmitted
   segment timed from its first transmission) out of the estimator.
   The rig's round trip is the 100 ms timing delay each way plus the
   network's 1 ms link latency each way *)
let karn_rtt = Vtime.ms 202
let karn_bound = Vtime.mul karn_rtt 4

let karn_oracle (p : Profile.t) _outcome trace =
  let rx = client "tcp.retransmit" trace in
  let srtt =
    match last rx with Some e -> kv_exn e "srtt" | None -> "no retransmissions"
  in
  (* the detail renders the estimate with Vtime.to_string *)
  let inflated =
    Option.join
      (Scanf.sscanf_opt srtt "%f%s%!" (fun f unit ->
           match unit with
           | "s" -> Some (Vtime.of_sec_f f)
           | "ms" -> Some (Vtime.of_sec_f (f /. 1e3))
           | _ -> None))
    |> Option.map (fun t -> Vtime.(t > karn_bound))
  in
  let bound = Printf.sprintf "4x the %s round trip" (Vtime.to_string karn_rtt) in
  [ check_at_least "retransmissions observed" ~floor:1
      ~measured:(List.length rx);
    check_bound "srtt at the last retransmission"
      ~paper:((if p.Profile.karn_sampling then "within " else "over ") ^ bound)
      ~measured:srtt
      (inflated = Some (not p.Profile.karn_sampling)) ]

(* ------------------------------------------------------------------ *)
(* GMP oracles (paper Tables 5-8)                                     *)
(* ------------------------------------------------------------------ *)

(* a gmp.view detail reads "gid=G leader=L members=[1,2,3]" *)
let view_members e =
  match kv (Trace.detail e) "members" with
  | Some m when String.length m >= 2 ->
    String.sub m 1 (String.length m - 2)
    |> String.split_on_char ','
    |> List.filter_map int_of_string_opt
  | _ -> []

(* every view [node] committed, oldest first *)
let views node trace =
  List.map view_members (Trace.find ~node ~tag:"gmp.view" trace)

(* the view [node] held just before [t]: the last one committed
   strictly earlier *)
let view_before node t trace =
  List.fold_left
    (fun acc e -> if Vtime.(e.Trace.time < t) then view_members e else acc)
    [] (Trace.find ~node ~tag:"gmp.view" trace)

let final_view node = view_before node Vtime.infinity

let group ids = "{" ^ String.concat "," (List.map string_of_int ids) ^ "}"
let yes_no b = if b then "yes" else "no"

(* how often [member] left and re-entered [node]'s committed views *)
let kicks_and_readmissions node ~member trace =
  let rec go kicked readmitted = function
    | a :: (b :: _ as rest) ->
      go
        (if a && not b then kicked + 1 else kicked)
        (if b && not a then readmitted + 1 else readmitted)
        rest
    | _ -> (kicked, readmitted)
  in
  go 0 0 (List.map (List.mem member) (views node trace))

(* Table 5, case 1: n3 drops its own heartbeats from 40 s on.  The
   self-death bug marks itself down but stays in the old group, where
   its proclaim forwarding is silently broken; fixed, it forms a
   singleton.  [self_down] is set by gmp.self-dead and cleared by
   gmp.singleton or gmp.transition, whichever came last *)
let self_death_from = Vtime.sec 40

let self_death_oracle ~bug _outcome trace =
  let self_dead = Trace.count ~node:"n3" ~tag:"gmp.self-dead" trace in
  let marked_down =
    let last_of tag =
      Option.map (fun e -> e.Trace.time) (Trace.last ~node:"n3" ~tag trace)
    in
    match last_of "gmp.self-dead" with
    | None -> false
    | Some dead ->
      List.for_all
        (fun tag ->
          match last_of tag with Some t -> Vtime.(t < dead) | None -> true)
        [ "gmp.singleton"; "gmp.transition" ]
  in
  let final = final_view "n3" trace in
  let in_old_group = marked_down && List.length final > 1 in
  let state =
    (if marked_down then "marked down in " else "not marked down, in ")
    ^ group final
  in
  let singleton_after =
    List.exists
      (fun e -> Vtime.(e.Trace.time > self_death_from))
      (Trace.find ~node:"n3" ~tag:"gmp.singleton" trace)
  in
  if bug then
    [ check_at_least "self-death announcements" ~floor:1 ~measured:self_dead;
      check_bound "state at the horizon" ~paper:"in the old group, marked down"
        ~measured:state in_old_group;
      check_at_least "proclaims lost in the broken forwarder" ~floor:1
        ~measured:(Trace.count ~node:"n3" ~tag:"gmp.fwd-dropped" trace) ]
  else
    [ check_int "self-death announcements" ~paper:0 ~measured:self_dead;
      check "singleton formed after the fault" ~paper:"yes"
        ~measured:(yes_no singleton_after);
      check_bound "state at the horizon" ~paper:"not marked down"
        ~measured:state (not marked_down) ]

(* Table 5, case 2: n3 drops its heartbeats to the others in 35 s
   bursts, so the leader's views drop and re-admit it in a cycle *)
let kick_cycle_oracle _outcome trace =
  let kicked, readmitted = kicks_and_readmissions "n1" ~member:3 trace in
  [ check_at_least "times n3 was kicked out" ~floor:2 ~measured:kicked;
    check_at_least "times n3 was re-admitted" ~floor:2 ~measured:readmitted ]

(* Table 5, case 3: the leader drops every ACK from n3, so n3's
   MEMBERSHIP_CHANGE waits time out and it never gets in *)
let ack_drop_oracle _outcome trace =
  [ check "n3 in a committed leader view" ~paper:"never"
      ~measured:
        (if List.exists (List.mem 3) (views "n1" trace) then "yes" else "never");
    check_at_least "join attempts ending in mc-timeout" ~floor:2
      ~measured:(Trace.count ~node:"n3" ~tag:"gmp.mc-timeout" trace) ]

(* Table 5, case 4: n3 drops every COMMIT, so the others commit it, hear
   no heartbeats from it (it is still IN_TRANSITION) and kick it out,
   while it cycles back to a singleton on its MC timer *)
let commit_drop_oracle _outcome trace =
  let kicked, _ = kicks_and_readmissions "n1" ~member:3 trace in
  [ check "committed into the leader's view" ~paper:"yes"
      ~measured:(yes_no (List.exists (List.mem 3) (views "n1" trace)));
    check_at_least "times kicked out for silence" ~floor:1 ~measured:kicked;
    check "n3 adopted a multi-member view" ~paper:"never"
      ~measured:
        (if List.for_all (fun v -> v = [ 3 ]) (views "n3" trace) then "never"
         else "yes");
    check_at_least "MC-timer reversions to a singleton" ~floor:1
      ~measured:(Trace.count ~node:"n3" ~tag:"gmp.mc-timeout" trace) ]

(* Table 6, case 1: {n1,n2,n3} and {n4,n5} stop talking at 60 s, talk
   again at 160 s and split again at 260 s; the views of n1 and n4 are
   read just before each phase ends *)
let partition_oracle _outcome trace =
  let views_at t =
    let at = Vtime.sec t in
    group (view_before "n1" at trace) ^ " and " ^ group (view_before "n4" at trace)
  in
  let split = "{1,2,3} and {4,5}" and merged = "{1,2,3,4,5} and {1,2,3,4,5}" in
  [ check "views of n1 and n4 during the split (155 s)" ~paper:split
      ~measured:(views_at 155);
    check "views of n1 and n4 after the heal (255 s)" ~paper:merged
      ~measured:(views_at 255);
    check "views of n1 and n4 in the second split (355 s)" ~paper:split
      ~measured:(views_at 355) ]

(* Table 6, case 2: from 60 s the leader and the crown prince drop each
   other's messages; either event order ends the same way *)
let separation_oracle _outcome trace =
  [ check "leader's final group" ~paper:"{1,3,4,5}"
      ~measured:(group (final_view "n1" trace));
    check "crown prince's final group" ~paper:"{2}"
      ~measured:(group (final_view "n2" trace)) ]

(* Table 7: n3 starts late and its PROCLAIMs to the leader are dropped,
   so n2 forwards them.  The buggy leader answers the forwarder, which
   bounces the answer back: a proclaim loop *)
let proclaim_oracle ~bug _outcome trace =
  let forwards = Trace.count ~node:"n2" ~tag:"gmp.proclaim-fwd" trace in
  let admitted = List.mem 3 (final_view "n1" trace) in
  if bug then
    [ check_bound "proclaim forwards by n2" ~paper:"over 20 (a loop)"
        ~measured:(string_of_int forwards) (forwards > 20);
      check "originator admitted" ~paper:"no" ~measured:(yes_no admitted) ]
  else
    [ check_bound "proclaim forwards by n2" ~paper:"20 or fewer (no loop)"
        ~measured:(string_of_int forwards) (forwards <= 20);
      check "originator admitted" ~paper:"yes" ~measured:(yes_no admitted) ]

(* Table 8: n2 drops COMMITs and heartbeats once it has seen a second
   MEMBERSHIP_CHANGE (n3 joining at 30 s).  The timers armed as it
   entered IN_TRANSITION are the gmp.transition entry's [armed] field;
   with the inverted unset a heartbeat-expect timer stays armed and
   fires while n2 waits for the COMMIT *)
let timer_oracle ~bug _outcome trace =
  let armed =
    List.find_map
      (fun e ->
        if Vtime.(e.Trace.time >= Gmp_harness.late_start) then
          List.assoc_opt "armed" e.Trace.fields
        else None)
      (Trace.find ~node:"n2" ~tag:"gmp.transition" trace)
  in
  let measured = Option.value armed ~default:"no transition" in
  let spurious = Trace.count ~node:"n2" ~tag:"gmp.spurious-timeout" trace in
  if bug then
    [ check_bound "timers armed entering IN_TRANSITION"
        ~paper:"an expect timer besides mc_wait" ~measured
        (List.exists
           (String.starts_with ~prefix:"expect_")
           (String.split_on_char ' ' measured));
      check_at_least "spurious expect-timer firings" ~floor:1
        ~measured:spurious ]
  else
    [ check "timers armed entering IN_TRANSITION" ~paper:"mc_wait" ~measured;
      check_int "spurious expect-timer firings" ~paper:0 ~measured:spurious ]

(* ------------------------------------------------------------------ *)
(* The catalog                                                        *)
(* ------------------------------------------------------------------ *)

type section_meta = {
  sec_key : string;
  sec_title : string;
  sec_blurb : string;
}

let rto_delays = [ 3; 8 ]

let sections =
  [ { sec_key = "rexmt";
      sec_title = "Retransmission exhaustion (paper Table 1)";
      sec_blurb =
        "A single DATA segment is stalled forever — every outgoing DATA is \
         dropped below the client's transport with no heal — and the \
         retransmission machinery runs to exhaustion." };
    { sec_key = "counter";
      sec_title = "Retry accounting across messages (paper Table 2, \xc2\xa74.1)";
      sec_blurb =
        "ACKs returning to the client are filtered: three pass, the fourth \
         is delayed 35 s, the rest vanish — the paper's \
         global-error-counter rig.  Two messages stall in sequence; the \
         second one's retry budget reveals whether timeouts are counted \
         per message or in one global error counter." };
    { sec_key = "keepalive";
      sec_title = "Keep-alive probing (paper Table 3)";
      sec_blurb =
        "The connection idles with keep-alive enabled; after the transfer \
         (and the harness's fault-heal point) a send-side filter swallows \
         every probe, so the probe schedule runs to exhaustion." };
    { sec_key = "zerowin";
      sec_title = "Zero-window probing (paper Table 4)";
      sec_blurb =
        "The server stops consuming, its advertised window closes, and \
         the client's persist timer probes the closed window — backing \
         off to a vendor-specific ceiling, forever." };
    { sec_key = "handshake";
      sec_title = "Connection establishment under SYN loss";
      sec_blurb =
        "Beyond the paper's tables: the first two SYNs of an active open \
         are dropped, exercising the SYN_SENT retransmission leg of the \
         10-state FSM." };
    { sec_key = "teardown";
      sec_title = "Orderly release under FIN duplication";
      sec_blurb =
        "Beyond the paper's tables: the client's FIN is duplicated during \
         an orderly close; the duplicate must not derail the FIN_WAIT_1 \
         \xe2\x86\x92 FIN_WAIT_2 \xe2\x86\x92 TIME_WAIT walk, and the 2MSL \
         wait must expire on its own." } ]
  @ List.map
      (fun delay ->
        { sec_key = Printf.sprintf "rto-delay-%ds" delay;
          sec_title =
            Printf.sprintf
              "RTO under %d s delayed ACKs (paper Table 2, Figure 4)" delay;
          sec_blurb =
            Printf.sprintf
              "The client sends one segment every %d s.  Its first thirty \
               ACKs are held %d s in the receive filter, then every DATA it \
               sends is dropped.  The stalled segment's first \
               retransmission shows whether the RTO adapted to the apparent \
               round trip; its retransmission gaps are Figure 4's series."
              (delay + 1) delay })
      rto_delays
  @ [ { sec_key = "counter-probe";
        sec_title = "The global error counter probe (paper \xc2\xa74.1)";
        sec_blurb =
          "The paper's exact rig: the client sends a segment every 400 ms, \
           thirty pass, the ACK of the thirty-first (m1) is held 35 s, and \
           everything sent after m1 is dropped.  The retransmissions of the \
           second stalled message (m2) show whether it inherited m1's \
           timeouts.  `pfi_run msc` draws the Solaris row as a ladder." };
      { sec_key = "keepalive-acked";
        sec_title = "Keep-alive probes answered (paper Table 3)";
        sec_blurb =
          "The connection idles with keep-alive enabled and the peer \
           answers every probe, so each answer re-arms the idle timer." };
      { sec_key = "zerowin-dropped";
        sec_title = "Zero-window probes dropped (paper Table 4)";
        sec_blurb =
          "As in the zero-window section, but from 5 min on a send-side \
           filter drops every probe: nothing answers the persist timer." };
      { sec_key = "zerowin-outage";
        sec_title = "Two-day outage while probing a zero window (paper Table 4)";
        sec_blurb =
          "After 10 min of zero-window probing both filters drop everything \
           for 48 h, the PFI stand-in for the paper's unplugged Ethernet; \
           then the client is reconnected." };
      { sec_key = "reorder";
        sec_title = "Reordering (paper \xc2\xa74.1, Experiment 5)";
        sec_blurb =
          "The client sends a segment every 100 ms; its send filter holds \
           the first DATA back 3 s and drops every retransmission of the \
           second, so the second reaches the server first and is never \
           resent.  The server runs the same vendor profile, and the \
           stream arrives intact only if it queued the early segment." };
      { sec_key = "ablation-karn";
        sec_title = "Ablation A: Karn's sampling rule (not in the paper)";
        sec_blurb =
          "An x-Kernel profile with a 10 ms variance floor and timer granule \
           behind two layered failure models: a 100 ms timing delay each \
           way and 25% send omission.  Without Karn's rule, samples timed \
           from a retransmitted segment's first transmission include the \
           timeout wait and inflate the smoothed RTT." };
      { sec_key = "ablation-counter";
        sec_title = "Ablation B: retry accounting policy (not in the paper)";
        sec_blurb =
          "The counter probe on Solaris 2.3 with its global error counter \
           on and off: with it m1's six timeouts are charged against m2, \
           without it m2 gets the full budget." } ]
  @ List.map
      (fun (sec_key, sec_title, sec_blurb) -> { sec_key; sec_title; sec_blurb })
      [ ( "gmp-self-death",
          "GMP: heartbeats to the local machine dropped (paper Table 5)",
          "Three gmd daemons (n1..n3; the lowest id leads) each run over a \
           reliable-UDP layer with a PFI layer beneath it.  From 40 s n3's \
           send filter drops the heartbeats it sends to itself, so its own \
           expect timer fires: the paper's \"gmd believed it had died\"." );
        ( "gmp-kick-cycle",
          "GMP: heartbeats to the other members dropped (paper Table 5)",
          "From 20 s n3's send filter drops its heartbeats to the others in \
           alternating 35 s windows; the leader's committed views show n3 \
           kicked out and re-admitted." );
        ( "gmp-ack-drop",
          "GMP: MEMBERSHIP_CHANGE ACKs dropped (paper Table 5)",
          "n3 starts at 30 s, after n1 and n2 have formed a group.  The \
           leader's receive filter drops every ACK from n3." );
        ( "gmp-commit-drop",
          "GMP: COMMITs dropped (paper Table 5)",
          "n3 starts at 30 s and its receive filter drops every COMMIT, so \
           it never leaves IN_TRANSITION for the views the others commit." );
        ( "gmp-partition",
          "GMP: partition oscillation (paper Table 6)",
          "Five daemons.  Every send filter drops messages addressed to the \
           other side of {n1,n2,n3} and {n4,n5} while a blackboard flag is \
           set: from 60 s, cleared at 160 s, set again at 260 s.  The views \
           of n1 and n4 are read just before each phase ends." );
        ( "gmp-separation",
          "GMP: leader/crown-prince separation (paper Table 6)",
          "Five daemons.  From 60 s n1 (the leader) and n2 (the crown \
           prince) drop every message addressed to each other." );
        ( "gmp-proclaim",
          "GMP: proclaim forwarding (paper Table 7)",
          "n3 starts at 30 s and its send filter drops its PROCLAIMs to the \
           leader, so n2 forwards them.  The buggy leader replies to the \
           forwarder instead of the originator; the bug row runs 45 s, the \
           fixed row 120 s." );
        ( "gmp-timer",
          "GMP: timer test (paper Table 8)",
          "n3 starts at 30 s.  Once n2 has seen a second MEMBERSHIP_CHANGE, \
           its receive filter drops COMMITs and heartbeats, holding it \
           IN_TRANSITION.  The timers still armed as it entered are the \
           `armed` field of its `gmp.transition` trace entry." ) ]

let plural n = if n = 1 then "" else "s"

(* an arm hook that acts on the PFI layer at virtual time [t] *)
let at t f sim pfi = ignore (Sim.schedule sim ~delay:t (fun () -> f pfi))

let drop = "xDrop cur_msg"

(* from [t] on the send filter drops everything: [t] lies after the
   harness's 3 min heal point, which would clear an earlier filter *)
let drop_sends_from t = at t (fun pfi -> Pfi_layer.set_send_filter pfi drop)

let mk ~section ~(p : Profile.t) ~quirk ?(phase = Tcp_harness.Stream)
    ?(chunks = 12) ?(every = Vtime.sec 2) ?(keepalive = false)
    ?(server_reads = true) ?(heal = true) ?(side = Campaign.Send_filter)
    ?script ?arm ~horizon ~oracle fault =
  { row_id = section ^ "/" ^ Profile.slug p;
    row_section = section;
    row_vendor = Profile.slug p;
    row_name = p.Profile.name;
    row_quirk = quirk;
    row_harness =
      (fun override ->
        Tcp_harness.harness ~chunk_count:chunks ~every
          ~profile:(Option.value override ~default:p)
          ~phase ~keepalive ~server_reads ~heal ());
    cfg_side = side;
    cfg_fault = fault;
    cfg_script = script;
    cfg_arm = arm;
    cfg_horizon = horizon;
    row_oracle = oracle p }

let rexmt_row (p : Profile.t) =
  mk ~section:"rexmt" ~p
    ~quirk:
      (Printf.sprintf "%d retransmission%s, backoff capped at %s, then %s"
         p.Profile.max_data_retries
         (plural p.Profile.max_data_retries)
         (Vtime.to_string p.Profile.rto_max)
         (if p.Profile.rst_on_timeout then "RST" else "silent close"))
    ~chunks:1 ~heal:false ~horizon:(Vtime.minutes 30) ~oracle:rexmt_oracle
    (Generator.Drop_all "DATA")

let counter_row (p : Profile.t) =
  mk ~section:"counter" ~p
    ~quirk:
      (if p.Profile.global_error_counter then
         "one global error counter; a second stalled message inherits the \
          first one's failures"
       else "per-message retry accounting; every ACK resets the count")
    ~heal:false ~side:Campaign.Receive_filter ~script:counter_script
    ~horizon:(Vtime.minutes 30) ~oracle:counter_oracle
    (Generator.Drop_all "DATA")

let keepalive_row (p : Profile.t) =
  mk ~section:"keepalive" ~p
    ~quirk:
      (Printf.sprintf "first probe after %s idle%s, %s on failure"
         (Vtime.to_string p.Profile.keepalive_idle)
         (if p.Profile.keepalive_garbage_byte then
            ", probes padded with a garbage byte"
          else "")
         (if p.Profile.keepalive_rst_on_fail then "RST" else "silent close"))
    ~chunks:2 ~keepalive:true ~script:""
    ~arm:(drop_sends_from (Vtime.minutes 5))
    ~horizon:(Vtime.hours 3) ~oracle:keepalive_oracle
    (Generator.Drop_all "DATA")

let zerowin_row (p : Profile.t) =
  mk ~section:"zerowin" ~p
    ~quirk:
      (Printf.sprintf "persist probes back off to a %s ceiling and never \
                       give up"
         (Vtime.to_string p.Profile.persist_max))
    ~chunks:60 ~server_reads:false ~script:"" ~horizon:(Vtime.minutes 30)
    ~oracle:(zerowin_oracle ~min_probes:20) (Generator.Drop_all "DATA")

let handshake_row (p : Profile.t) =
  mk ~section:"handshake" ~p
    ~quirk:"SYN loss is recovered by the retransmission timer; the \
            handshake still completes"
    ~phase:Tcp_harness.Handshake ~chunks:4 ~horizon:(Vtime.minutes 10)
    ~oracle:handshake_oracle
    (Generator.Drop_first ("SYN", 2))

let teardown_row (p : Profile.t) =
  mk ~section:"teardown" ~p
    ~quirk:"a duplicated FIN does not derail orderly release; TIME_WAIT \
            expires after 2MSL"
    ~phase:Tcp_harness.Close ~horizon:(Vtime.minutes 10)
    ~oracle:teardown_oracle (Generator.Duplicate "FIN")

(* thirty ACKs are held [delay] s in the receive filter; the thirtieth
   tells the send filter to drop every DATA from then on *)
let rto_delay_script delay =
  Printf.sprintf
    {|
if {$direction == "receive"} {
  if {[msg_type cur_msg] == "ACK"} {
    if {![info exists acks]} { set acks 0 }
    incr acks
    if {$acks <= 30} { xDelay cur_msg %d }
    if {$acks == 30} { peer_set dropping 1 }
  }
} elseif {[info exists dropping] && [msg_type cur_msg] == "DATA"} {
  xDrop cur_msg
}
|}
    delay

let rto_delay_row delay (p : Profile.t) =
  let span = Vtime.sec delay in
  mk ~section:(Printf.sprintf "rto-delay-%ds" delay) ~p
    ~quirk:
      (Printf.sprintf "RTO %s the %d s ACK delay; %s"
         (if p.Profile.use_jacobson then "adapts to" else "ignores")
         delay
         (if p.Profile.global_error_counter then
            "the global error counter closes the connection early"
          else
            Printf.sprintf "%d retransmissions, then %s"
              p.Profile.max_data_retries
              (rst_name p.Profile.rst_on_timeout)))
    ~chunks:40 ~every:(Vtime.sec (delay + 1)) ~heal:false
    ~side:Campaign.Both_filters ~script:(rto_delay_script delay)
    ~horizon:(Vtime.minutes 30) ~oracle:(rto_delay_oracle ~delay:span)
    (Generator.Delay_each ("ACK", float_of_int delay))

let counter_probe_script =
  {|
if {$direction == "send"} {
  if {[msg_type cur_msg] == "DATA"} {
    if {![info exists sent]} { set sent 0 }
    incr sent
    if {$sent == 31} { peer_set hold_ack 1 }
    if {$sent > 31} { xDrop cur_msg }
  }
} elseif {[info exists hold_ack] && [msg_type cur_msg] == "ACK"} {
  if {$hold_ack == 1} {
    set hold_ack 0
    xDelay cur_msg 35
  }
}
|}

let counter_probe_row ~section (p : Profile.t) =
  mk ~section ~p
    ~quirk:
      (if p.Profile.global_error_counter then
         Printf.sprintf
           "m1 is retransmitted %d times before its ACK; m2 inherits the \
            count and dies after %d"
           paper_m1_retries
           (p.Profile.max_data_retries - paper_m1_retries)
       else
         Printf.sprintf "m2 gets the full budget of %d retransmissions"
           p.Profile.max_data_retries)
    ~chunks:32 ~every:(Vtime.ms 400) ~heal:false ~side:Campaign.Both_filters
    ~script:counter_probe_script ~horizon:(Vtime.minutes 30)
    ~oracle:counter_probe_oracle
    (Generator.Delay_each ("ACK", 35.0))

let keepalive_acked_row (p : Profile.t) =
  mk ~section:"keepalive-acked" ~p
    ~quirk:
      (Printf.sprintf "answered probes repeat after every %s of idle; the \
                       connection stays open"
         (Vtime.to_string p.Profile.keepalive_idle))
    ~chunks:2 ~keepalive:true ~script:"" ~horizon:(Vtime.hours 10)
    ~oracle:keepalive_acked_oracle (Generator.Drop_all "DATA")

let zerowin_dropped_row (p : Profile.t) =
  mk ~section:"zerowin-dropped" ~p
    ~quirk:
      (Printf.sprintf "unanswered probes back off to a %s ceiling and never \
                       give up"
         (Vtime.to_string p.Profile.persist_max))
    ~chunks:60 ~server_reads:false ~script:""
    ~arm:(drop_sends_from (Vtime.minutes 5))
    ~horizon:(Vtime.minutes 95) ~oracle:(zerowin_oracle ~min_probes:50)
    (Generator.Drop_all "DATA")

let outage_start = Vtime.minutes 10
let outage_end = Vtime.add outage_start (Vtime.hours 48)

let zerowin_outage_row (p : Profile.t) =
  let cut pfi =
    Pfi_layer.set_send_filter pfi drop;
    Pfi_layer.set_receive_filter pfi drop
  and reconnect pfi =
    Pfi_layer.clear_send_filter pfi;
    Pfi_layer.clear_receive_filter pfi
  in
  mk ~section:"zerowin-outage" ~p
    ~quirk:"zero-window probing survives a two-day outage and resumes on \
            reconnection"
    ~chunks:60 ~server_reads:false ~script:""
    ~arm:(fun sim pfi ->
        at outage_start cut sim pfi;
        at outage_end reconnect sim pfi)
    ~horizon:(Vtime.add outage_end (Vtime.minutes 20))
    ~oracle:(outage_oracle ~until:outage_end) (Generator.Drop_all "DATA")

let reorder_script =
  {|
if {[msg_type cur_msg] == "DATA"} {
  set seq [msg_field cur_msg seq]
  if {![info exists first]} {
    set first $seq
    xDelay cur_msg 3
  } elseif {$seq != $first} {
    if {![info exists second]} {
      set second $seq
    } elseif {$seq == $second} {
      xDrop cur_msg
    }
  }
}
|}

let reorder_row (p : Profile.t) =
  mk ~section:"reorder" ~p
    ~quirk:"queues the overtaking segment; when the gap fills, acknowledges \
            the data from both"
    ~every:(Vtime.ms 100) ~script:reorder_script ~horizon:(Vtime.minutes 10)
    ~oracle:reorder_oracle (Generator.Reorder "DATA")

let karn_profile karn_sampling =
  { Profile.xkernel with
    Profile.name = (if karn_sampling then "Karn on" else "Karn off");
    karn_sampling;
    rttvar_floor = Vtime.ms 10;
    rto_granule = Vtime.ms 10 }

let karn_row (p : Profile.t) =
  mk ~section:"ablation-karn" ~p
    ~quirk:
      (if p.Profile.karn_sampling then
         "retransmitted segments are not timed; the estimate tracks the path"
       else "retransmitted segments are timed; the estimate absorbs timeouts")
    ~chunks:60 ~script:""
    ~arm:(fun _sim pfi ->
        Failure_models.apply pfi (Failure_models.Timing { mean = 0.1; std = 0.0 });
        Failure_models.apply pfi (Failure_models.Send_omission { p = 0.25 }))
    ~horizon:(Vtime.minutes 4) ~oracle:karn_oracle
    (Generator.Drop_fraction ("DATA", 0.25))

(* GMP rows: the gmd variant is the row's "vendor"; every fault stays
   in place for the whole run (no heal) *)
let fixed = ("fixed", "gmd (fixed)")

let gmp_mk ~section ~variant:(slug, name) ~quirk ?(n = 3) ?late
    ?(bugs = Gmd.no_bugs) ?(side = Campaign.Send_filter) ?(script = "") ?arm
    ~horizon ~oracle fault =
  { row_id = section ^ "/" ^ slug;
    row_section = section;
    row_vendor = slug;
    row_name = name;
    row_quirk = quirk;
    row_harness = (fun _ -> Gmp_harness.harness ~n ?late ~heal:false ~bugs ());
    cfg_side = side;
    cfg_fault = fault;
    cfg_script = Some script;
    cfg_arm = arm;
    cfg_horizon = horizon;
    row_oracle = oracle }

(* the arm hook is handed n1's layer; the others are its peers *)
let send_filter node script pfi =
  Pfi_layer.set_send_filter (Pfi_layer.peer pfi node) script

let receive_filter node script pfi =
  Pfi_layer.set_receive_filter (Pfi_layer.peer pfi node) script

let drop_self_heartbeats =
  {|
if {[msg_type cur_msg] == "HEARTBEAT" && [msg_attr cur_msg net.dst] == $pfi_node} {
  xDrop cur_msg
}
|}

let self_death_row ~bug =
  gmp_mk ~section:"gmp-self-death"
    ~variant:(if bug then ("bug", "gmd (bug: self-death)") else fixed)
    ~quirk:
      (if bug then
         "declares itself dead but stays in the old group marked down; its \
          proclaim forwarding silently fails"
       else "forms a singleton and rejoins")
    ~bugs:{ Gmd.no_bugs with Gmd.self_death = bug }
    ~arm:(at self_death_from (send_filter "n3" drop_self_heartbeats))
    ~horizon:(Vtime.sec 180) ~oracle:(self_death_oracle ~bug)
    (Generator.Drop_all "HEARTBEAT")

(* ~35 s dropping n3's heartbeats to the others, ~35 s not *)
let oscillating_drop =
  {|
if {[msg_type cur_msg] == "HEARTBEAT" && [msg_attr cur_msg net.dst] != $pfi_node} {
  set phase [expr {int([now] / 35) % 2}]
  if {$phase == 1} { xDrop cur_msg }
}
|}

let kick_cycle_row =
  gmp_mk ~section:"gmp-kick-cycle" ~variant:fixed
    ~quirk:"kicked out, re-admitted, kicked out again: a cycle"
    ~arm:(at (Vtime.sec 20) (send_filter "n3" oscillating_drop))
    ~horizon:(Vtime.sec 400) ~oracle:kick_cycle_oracle
    (Generator.Drop_fraction ("HEARTBEAT", 0.5))

let ack_drop_row =
  gmp_mk ~section:"gmp-ack-drop" ~variant:fixed
    ~quirk:"never admitted; each attempt times out and proclaims again"
    ~late:[ "n3" ] ~side:Campaign.Receive_filter
    ~script:
      {|
if {[msg_type cur_msg] == "ACK" && [msg_attr cur_msg net.src] == "n3"} {
  xDrop cur_msg
}
|}
    ~horizon:(Vtime.sec 300) ~oracle:ack_drop_oracle (Generator.Drop_all "ACK")

let commit_drop_row =
  gmp_mk ~section:"gmp-commit-drop" ~variant:fixed
    ~quirk:"committed by the others, kicked out for silence, cycles on its \
            MC timer"
    ~late:[ "n3" ]
    ~arm:(fun _sim pfi ->
        receive_filter "n3"
          {|if {[msg_type cur_msg] == "COMMIT"} { xDrop cur_msg }|} pfi)
    ~horizon:(Vtime.sec 300) ~oracle:commit_drop_oracle
    (Generator.Drop_all "COMMIT")

(* the paper drops on destination address in the send filter *)
let split_filter other_side =
  Printf.sprintf
    {|
if {[bb_get split 0] == 1} {
  set dst [msg_attr cur_msg net.dst]
  if {[lsearch {%s} $dst] >= 0} { xDrop cur_msg }
}
|}
    (String.concat " " other_side)

let split_phases = [ (60, true); (160, false); (260, true) ]

let partition_row =
  let side_a = [ "n1"; "n2"; "n3" ] and side_b = [ "n4"; "n5" ] in
  gmp_mk ~section:"gmp-partition" ~variant:fixed
    ~quirk:"two disjoint groups; one group after the heal; the cycle repeats"
    ~n:5
    ~arm:(fun sim pfi ->
        List.iter (fun node -> send_filter node (split_filter side_b) pfi)
          side_a;
        List.iter (fun node -> send_filter node (split_filter side_a) pfi)
          side_b;
        List.iter
          (fun (t, split) ->
            at (Vtime.sec t)
              (fun pfi ->
                Blackboard.set (Pfi_layer.blackboard pfi) "split"
                  (if split then "1" else "0"))
              sim pfi)
          split_phases)
    ~horizon:(Vtime.sec 360) ~oracle:partition_oracle
    (Generator.Drop_all "HEARTBEAT")

let block_dst dst =
  Printf.sprintf {|if {[msg_attr cur_msg net.dst] == "%s"} { xDrop cur_msg }|}
    dst

let separation_row =
  gmp_mk ~section:"gmp-separation" ~variant:fixed
    ~quirk:"the leader keeps everyone but the crown prince, who ends alone"
    ~n:5
    ~arm:
      (at (Vtime.sec 60) (fun pfi ->
           send_filter "n1" (block_dst "n2") pfi;
           send_filter "n2" (block_dst "n1") pfi))
    ~horizon:(Vtime.sec 400) ~oracle:separation_oracle
    (Generator.Drop_all "HEARTBEAT")

let proclaim_row ~bug =
  gmp_mk ~section:"gmp-proclaim"
    ~variant:(if bug then ("bug", "gmd (bug: reply to sender)") else fixed)
    ~quirk:
      (if bug then "the leader answers the forwarder: a proclaim loop"
       else "the leader answers the originator, who is admitted")
    ~late:[ "n3" ]
    ~bugs:{ Gmd.no_bugs with Gmd.proclaim_reply_to_sender = bug }
    ~arm:(fun _sim pfi ->
        send_filter "n3"
          {|
if {[msg_type cur_msg] == "PROCLAIM" && [msg_attr cur_msg net.dst] == "n1"} {
  xDrop cur_msg
}
|}
          pfi)
    (* a short horizon under the bug: the loop floods messages *)
    ~horizon:(Vtime.sec (if bug then 45 else 120))
    ~oracle:(proclaim_oracle ~bug) (Generator.Drop_all "PROCLAIM")

let second_mc_drop =
  {|
set t [msg_type cur_msg]
if {$t == "MEMBERSHIP_CHANGE"} {
  set n [expr {[bb_get mc_seen 0] + 1}]
  bb_set mc_seen $n
  if {$n >= 2} { bb_set dropping 1 }
}
if {[bb_get dropping 0] == 1 && ($t == "COMMIT" || $t == "HEARTBEAT")} {
  xDrop cur_msg
}
|}

let timer_row ~bug =
  gmp_mk ~section:"gmp-timer"
    ~variant:(if bug then ("bug", "gmd (bug: inverted timer unset)") else fixed)
    ~quirk:
      (if bug then
         "a heartbeat-expect timer stays armed IN_TRANSITION and fires"
       else "only the membership-change timer is armed IN_TRANSITION")
    ~late:[ "n3" ]
    ~bugs:{ Gmd.no_bugs with Gmd.timer_unset_inverted = bug }
    ~arm:(fun _sim pfi -> receive_filter "n2" second_mc_drop pfi)
    ~horizon:(Vtime.sec 60) ~oracle:(timer_oracle ~bug)
    (Generator.Drop_all "COMMIT")

let counter_profile global_error_counter =
  { Profile.solaris_23 with
    Profile.name =
      (if global_error_counter then "global counter" else "per-segment counter");
    global_error_counter }

let bug_and_fixed row = List.map (fun bug -> row ~bug) [ true; false ]

let catalog () =
  List.concat_map
    (fun builder -> List.map builder Profile.all_vendors)
    [ rexmt_row; counter_row; keepalive_row; zerowin_row; handshake_row;
      teardown_row ]
  @ List.concat_map
      (fun builder -> List.map builder Profile.all_vendors)
      (List.map rto_delay_row rto_delays
       @ [ counter_probe_row ~section:"counter-probe"; keepalive_acked_row;
           zerowin_dropped_row ])
  @ [ zerowin_outage_row Profile.sunos_413 ]
  @ List.map reorder_row Profile.all_vendors
  @ List.map karn_row [ karn_profile true; karn_profile false ]
  @ List.map
      (counter_probe_row ~section:"ablation-counter")
      [ counter_profile true; counter_profile false ]
  @ bug_and_fixed self_death_row
  @ [ kick_cycle_row; ack_drop_row; commit_drop_row; partition_row;
      separation_row ]
  @ bug_and_fixed proclaim_row
  @ bug_and_fixed timer_row

let golden_catalog () =
  [ rexmt_row Profile.sunos_413; rexmt_row Profile.solaris_23 ]

(* ------------------------------------------------------------------ *)
(* Running                                                            *)
(* ------------------------------------------------------------------ *)

type result = {
  res_id : string;
  res_section : string;
  res_vendor : string;
  res_quirk : string;
  res_seed : int64;
  res_checks : check list;
  res_pass : bool;
}

type report = {
  rep_seed : int64;
  rep_profile_override : string option;
  rep_results : result list;
}

(* FNV-1a over the row id: the fault identity alone does not identify a
   row (several rows share Drop_all DATA), so the per-row seed is keyed
   on the id instead *)
let fnv64 s =
  let prime = 0x100000001b3L in
  String.fold_left
    (fun h c -> Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) prime)
    0xcbf29ce484222325L s

let row_seed ~seed row =
  Campaign.trial_seed_of_key ~campaign_seed:seed ~side:row.cfg_side
    (fnv64 row.row_id)

let trial ~seed ~override row =
  let outcome =
    Campaign.run_trial (row.row_harness override) ~side:row.cfg_side ~horizon:row.cfg_horizon
      ~seed:(row_seed ~seed row) ~capture_trace:true ?script:row.cfg_script
      ?arm:row.cfg_arm row.cfg_fault
  in
  match outcome.Campaign.trace with
  | Some t -> (outcome, t)
  | None -> assert false (* capture_trace:true *)

let trial_trace ?(seed = Campaign.default_seed) row =
  snd (trial ~seed ~override:None row)

let check_against ?(seed = Campaign.default_seed) row ~trial_of =
  let outcome, trace = trial ~seed ~override:None trial_of in
  row.row_oracle outcome trace

let find id = List.find_opt (fun r -> r.row_id = id) (catalog ())

let run_row ~seed ~override row =
  let res_seed = row_seed ~seed row in
  let outcome, trace = trial ~seed ~override row in
  let checks = row.row_oracle outcome trace in
  { res_id = row.row_id;
    res_section = row.row_section;
    res_vendor = row.row_name;
    res_quirk = row.row_quirk;
    res_seed;
    res_checks = checks;
    res_pass = List.for_all (fun c -> c.ck_pass) checks }

let run ?(executor = Executor.sequential) ?(seed = Campaign.default_seed)
    ?profile_override rows =
  let override =
    Option.map
      (fun name ->
        match Profile.find name with
        | Some p -> p
        | None ->
          invalid_arg ("Conformance.run: unknown vendor profile " ^ name))
      profile_override
  in
  let results = Executor.map executor (run_row ~seed ~override) rows in
  { rep_seed = seed;
    rep_profile_override = profile_override;
    rep_results = results }

let passed rep =
  List.length (List.filter (fun r -> r.res_pass) rep.rep_results)

let total rep = List.length rep.rep_results

let check_counts rep =
  List.fold_left
    (fun (p, t) r ->
      List.fold_left
        (fun (p, t) c -> ((if c.ck_pass then p + 1 else p), t + 1))
        (p, t) r.res_checks)
    (0, 0) rep.rep_results

(* ------------------------------------------------------------------ *)
(* Reports                                                            *)
(* ------------------------------------------------------------------ *)

let to_markdown rep =
  let b = Buffer.create 8192 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "# Conformance catalog: the paper's TCP and GMP experiments\n\n";
  add
    "Re-discovers the paper's TCP quirk tables and GMP bug tables from \
     traces: each row\nbelow runs one fault-injection trial against one \
     variant (a TCP vendor profile or a\ngmd build) and measures the quirk \
     from the recorded trace alone (the service\nverdict is ignored — most \
     quirks only manifest while the service guarantee is\nfailing).\n\n";
  add
    "Regenerate with `pfi_run matrix --report <file>`.  Campaign seed %Ld; \
     the report\nis byte-identical for any `--jobs` width.\n\n"
    rep.rep_seed;
  (match rep.rep_profile_override with
   | None -> ()
   | Some p ->
     add
       "> **Profile override:** every trial ran against `%s` while keeping \
        each row's\n> own vendor expectations — a negative control, so \
        failures below are expected.\n\n"
       p);
  List.iter
    (fun sec ->
      let results =
        List.filter (fun r -> r.res_section = sec.sec_key) rep.rep_results
      in
      if results <> [] then begin
        add "## %s\n\n%s\n\n" sec.sec_title sec.sec_blurb;
        List.iter
          (fun r -> add "- **%s** — %s\n" r.res_vendor r.res_quirk)
          results;
        add "\n| Vendor | Check | Paper | Measured | Verdict |\n";
        add "|---|---|---|---|---|\n";
        List.iter
          (fun r ->
            List.iter
              (fun c ->
                add "| %s | %s | %s | %s | %s |\n" r.res_vendor c.ck_label
                  c.ck_paper c.ck_measured
                  (if c.ck_pass then "pass" else "**FAIL**"))
              r.res_checks)
          results;
        add "\n"
      end)
    sections;
  let cp, ct = check_counts rep in
  add "**%d/%d rows pass (%d/%d checks).**\n" (passed rep) (total rep) cp ct;
  Buffer.contents b

let to_json rep =
  let open Repro.Json in
  let check_json c =
    Obj
      [ ("check", Str c.ck_label);
        ("paper", Str c.ck_paper);
        ("measured", Str c.ck_measured);
        ("pass", Bool c.ck_pass) ]
  in
  let row_json r =
    Obj
      [ ("id", Str r.res_id);
        ("section", Str r.res_section);
        ("vendor", Str r.res_vendor);
        ("quirk", Str r.res_quirk);
        ("seed", Str (Int64.to_string r.res_seed));
        ("pass", Bool r.res_pass);
        ("checks", List (List.map check_json r.res_checks)) ]
  in
  let cp, ct = check_counts rep in
  Obj
    [ ("format", Str "pfi-conformance/1");
      ("campaign_seed", Str (Int64.to_string rep.rep_seed));
      ("profile_override",
       match rep.rep_profile_override with None -> Null | Some p -> Str p);
      ("rows_total", Int (total rep));
      ("rows_passed", Int (passed rep));
      ("checks_total", Int ct);
      ("checks_passed", Int cp);
      ("rows", List (List.map row_json rep.rep_results)) ]
