(* TCP probing: two of the paper's techniques against a vendor TCP, run
   on the stock TCP harness (a client and a server, with the PFI layer
   spliced below the client's transport).

   1. The Table 1 experiment for one vendor: every DATA segment the
      client sends is dropped, and the retransmission schedule is read
      back from the client's trace.
   2. A probe the passive-monitoring approaches cannot do: the PFI layer
      fabricates an ACK for data the client never sent and hands it to
      the client's TCP, then watches the vendor's reaction.

   Run with:  dune exec examples/tcp_probing.exe *)

open Pfi_engine
open Pfi_tcp
open Pfi_testgen

let profile = Profile.sunos_413

(* one send-filter trial on the harness, trace kept *)
let trial ~horizon script =
  Campaign.run_trial
    (Tcp_harness.harness ~chunk_count:1 ~profile ~heal:false ())
    ~side:Campaign.Send_filter ~horizon ~seed:Campaign.default_seed
    ~capture_trace:true ~script (Generator.Drop_all "DATA")

let trace_of (o : Campaign.outcome) = Option.get o.Campaign.trace

let () =
  Printf.printf "=== probing %s ===\n\n" profile.Profile.name;

  (* --- 1. retransmission schedule under total silence ------------- *)
  let trace =
    trace_of
      (trial ~horizon:(Vtime.hours 1)
         {|if {[msg_type cur_msg] == "DATA"} { xDrop cur_msg }|})
  in
  let rexmits = Trace.find ~node:"client" ~tag:"tcp.retransmit" trace in
  Printf.printf "the dropped segment was retransmitted %d times:\n"
    (List.length rexmits);
  List.iter
    (fun e ->
      Printf.printf "  %10s  %s\n" (Vtime.to_string e.Trace.time)
        (Trace.detail e))
    rexmits;
  Printf.printf "vendor closed the connection: %s, RST count: %d\n\n"
    (match Trace.find ~node:"client" ~tag:"tcp.closed" trace with
     | e :: _ -> Trace.detail e
     | [] -> "still open")
    (Trace.count ~node:"client" ~tag:"tcp.rst-sent" trace);

  (* --- 2. spurious-ACK injection ----------------------------------- *)
  (* an ACK carries no protocol state, so the PFI layer can generate one
     acknowledging data the client never sent and push it up into the
     client's TCP as if the server had sent it *)
  let outcome =
    trial ~horizon:(Vtime.sec 30)
      {|
if {[msg_type cur_msg] == "DATA" && ![info exists probed]} {
  set probed 1
  set fake_ack [expr {[msg_field cur_msg seq] + 9999}]
  set probe [msg_gen type ACK sport [msg_field cur_msg dport] \
                 dport [msg_field cur_msg sport] \
                 seq [msg_field cur_msg ack] ack $fake_ack window 4096 \
                 src server]
  log probe.injected "spurious ack=$fake_ack"
  inject_up $probe
}
|}
  in
  let trace = trace_of outcome in
  print_endline "spurious-ACK probe (acknowledging data never sent):";
  List.iter
    (fun e -> Printf.printf "  injected: %s\n" (Trace.detail e))
    (Trace.find ~tag:"probe.injected" trace);
  Printf.printf "  vendor state changes after the probe: %d; stream %s\n"
    (List.length
       (List.filter
          (fun e ->
            List.exists
              (fun p -> Vtime.(e.Trace.time > p.Trace.time))
              (Trace.find ~tag:"probe.injected" trace))
          (Trace.find ~node:"client" ~tag:"tcp.state" trace)))
    (match outcome.Campaign.verdict with
     | Campaign.Tolerated -> "delivered intact, connection ESTABLISHED"
     | Campaign.Violation reason -> "broken: " ^ reason)
