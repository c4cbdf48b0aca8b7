open Pfi_engine
open Pfi_stack

let dst_attr = "net.dst"
let src_attr = "net.src"
let broadcast = "*"

(* Everything set on one directed link.  Links nobody configured share
   [no_settings] and have no table entry. *)
type link = {
  latency : Vtime.t option;  (* None: the default latency *)
  jitter : Vtime.t option;
  loss : float option;
  blocked : bool;
}

let no_settings = { latency = None; jitter = None; loss = None; blocked = false }

type t = {
  sim : Sim.t;
  rng : Rng.t;
  mutable devices : (string * Layer.t) list;  (* sorted by node name *)
  mutable default_latency : Vtime.t;
  links : (string * string, link) Hashtbl.t;  (* by (src, dst) *)
  mutable groups : string list list option;  (* current partition *)
  mutable unplugged : string list;
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable trace_enabled : bool;
}

let create ?(default_latency = Vtime.ms 1) sim =
  { sim;
    rng = Rng.split (Sim.rng sim);
    devices = [];
    default_latency;
    links = Hashtbl.create 16;
    groups = None;
    unplugged = [];
    sent = 0;
    delivered = 0;
    dropped = 0;
    trace_enabled = false }

let sim t = t.sim

let nodes t = List.map fst t.devices

let rec listed node = function
  | [] -> false
  | n :: rest -> String.equal n node || listed node rest

let rec find_device node = function
  | [] -> None
  | (n, device) :: rest -> if String.equal n node then Some device else find_device node rest

(* The hot path asks only while some link has settings: until then a
   transmission hashes nothing. *)
let link t ~src ~dst =
  if Hashtbl.length t.links = 0 then no_settings
  else Option.value (Hashtbl.find_opt t.links (src, dst)) ~default:no_settings

let update_link t ~src ~dst f = Hashtbl.replace t.links (src, dst) (f (link t ~src ~dst))

let set_default_latency t l = t.default_latency <- l
let set_latency t ~src ~dst l = update_link t ~src ~dst (fun k -> { k with latency = Some l })
let set_jitter t ~src ~dst span = update_link t ~src ~dst (fun k -> { k with jitter = Some span })
let set_loss t ~src ~dst rate = update_link t ~src ~dst (fun k -> { k with loss = Some rate })
let block t ~src ~dst = update_link t ~src ~dst (fun k -> { k with blocked = true })

let unblock t ~src ~dst =
  if (link t ~src ~dst).blocked then update_link t ~src ~dst (fun k -> { k with blocked = false })

let partition t groups = t.groups <- Some groups
let heal t = t.groups <- None
let is_unplugged t node = listed node t.unplugged
let unplug t node = if not (is_unplugged t node) then t.unplugged <- node :: t.unplugged
let replug t node = t.unplugged <- List.filter (fun n -> not (String.equal n node)) t.unplugged

let sent_count t = t.sent
let delivered_count t = t.delivered
let dropped_count t = t.dropped
let set_trace_enabled t flag = t.trace_enabled <- flag

(* Callers must check [t.trace_enabled] BEFORE building the fields list
   and detail string: tracing is off in campaign trials, and eagerly
   formatting per-transmission details that are then thrown away was
   measurable across a whole campaign. *)
let trace ?fields t ~node ~tag detail =
  if t.trace_enabled then Sim.record ?fields t.sim ~node ~tag detail

(* One entry per transmission while a renderer wants message labels
   (Sim.want_labels), carrying everything the MSC renderer needs (see
   Msc.parse_entry for the format).  [time] is the send time:
   deliveries record their entry from inside the delivery callback (so
   an in-flight unplug is rendered as a drop, not an arrival), which is
   why the stamp is passed explicitly rather than read from the
   clock. *)
let msc_record t ~time ~src ~dst ~arrival msg =
  if Sim.want_labels t.sim then begin
    let label =
      match Message.get_attr msg "msc.label" with
      | Some l -> l
      | None -> Printf.sprintf "len=%d" (Message.length msg)
    in
    let arrival =
      match arrival with
      | Some time -> Int64.to_string (Vtime.to_us time)
      | None -> "-"
    in
    Trace.record (Sim.trace t.sim) ~time ~node:src ~tag:"msc"
      ~fields:[ ("dst", dst); ("arrival", arrival); ("label", label) ]
      (Printf.sprintf "dst=%s arrival=%s | %s" dst arrival label)
  end

let same_group t src dst =
  match t.groups with
  | None -> true
  | Some groups ->
    let find node =
      let rec go i = function
        | [] -> -1  (* unlisted nodes form the implicit group -1 *)
        | g :: rest -> if listed node g then i else go (i + 1) rest
      in
      go 0 groups
    in
    find src = find dst

let latency t link =
  let base = Option.value link.latency ~default:t.default_latency in
  match link.jitter with
  | None -> base
  | Some span ->
    let j = Rng.float t.rng (Vtime.to_sec_f span) in
    Vtime.add base (Vtime.of_sec_f j)

(* [sent_at] defaults to now; delivery-time drops pass the original send
   time so the MSC entry lines up with the transmission it records. *)
let drop ?sent_at t ~src ~dst msg reason =
  t.dropped <- t.dropped + 1;
  let sent_at = match sent_at with Some time -> time | None -> Sim.now t.sim in
  msc_record t ~time:sent_at ~src ~dst ~arrival:None msg;
  if t.trace_enabled then
    trace t ~node:src ~tag:"net.drop"
      ~fields:
        [ ("src", src); ("dst", dst);
          ("len", string_of_int (Message.length msg)); ("reason", reason) ]
      (Printf.sprintf "to=%s reason=%s %s" dst reason (Message.hex ~max_bytes:8 msg))

(* Transmit one copy of [msg] from [src] to the single node [dst]. *)
let transmit t ~src ~dst msg =
  t.sent <- t.sent + 1;
  if t.trace_enabled then
    trace t ~node:src ~tag:"net.send"
      ~fields:
        [ ("src", src); ("dst", dst); ("len", string_of_int (Message.length msg)) ]
      (Printf.sprintf "to=%s len=%d" dst (Message.length msg));
  let link = link t ~src ~dst in
  if is_unplugged t src then drop t ~src ~dst msg "src-unplugged"
  else if is_unplugged t dst then drop t ~src ~dst msg "dst-unplugged"
  else if link.blocked then drop t ~src ~dst msg "blocked"
  else if not (same_group t src dst) then drop t ~src ~dst msg "partitioned"
  else begin
    let lossy =
      match link.loss with
      | Some rate -> Rng.bernoulli t.rng ~p:rate
      | None -> false
    in
    if lossy then drop t ~src ~dst msg "loss"
    else
      match find_device dst t.devices with
      | None -> drop t ~src ~dst msg "no-such-node"
      | Some device ->
        let delay = latency t link in
        let sent_at = Sim.now t.sim in
        let arrival = Vtime.add sent_at delay in
        ignore
          (Sim.schedule t.sim ~delay (fun () ->
               (* the destination may have been unplugged in flight; the
                  MSC entry is only recorded here, once the outcome is
                  known, so dropped deliveries never render an arrow *)
               if is_unplugged t dst then
                 drop t ~sent_at ~src ~dst msg "dst-unplugged"
               else begin
                 t.delivered <- t.delivered + 1;
                 msc_record t ~time:sent_at ~src ~dst ~arrival:(Some arrival) msg;
                 Message.set_attr msg src_attr src;
                 if t.trace_enabled then
                   trace t ~node:dst ~tag:"net.deliver"
                     ~fields:
                       [ ("src", src); ("dst", dst);
                         ("len", string_of_int (Message.length msg)) ]
                     (Printf.sprintf "from=%s len=%d" src (Message.length msg));
                 Layer.deliver_up device msg
               end))
  end

let attach t ~node =
  if Option.is_some (find_device node t.devices) then
    failwith (Printf.sprintf "network: node %s already attached" node);
  let device =
    Layer.create ~name:"device" ~node
      { on_push =
          (fun _ msg ->
            let dst =
              match Message.get_attr msg dst_attr with
              | Some d -> d
              | None -> failwith "network: message has no net.dst attribute"
            in
            if String.equal dst broadcast then
              List.iter
                (fun (peer, _) ->
                  if not (String.equal peer node) then
                    transmit t ~src:node ~dst:peer (Message.copy msg))
                t.devices
            else transmit t ~src:node ~dst msg);
        on_pop = (fun _ _ -> failwith "network device layer: nothing below") }
  in
  t.devices <-
    List.sort (fun (a, _) (b, _) -> String.compare a b) ((node, device) :: t.devices);
  device
