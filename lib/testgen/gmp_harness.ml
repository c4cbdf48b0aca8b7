open Pfi_engine
open Pfi_stack
open Pfi_netsim
open Pfi_core
open Pfi_gmp

type env = {
  sim : Sim.t;
  pfi : Pfi_layer.t;  (* on n1: the faulty participant *)
  gmds : Gmd.t list;
  n : int;
}

let default_horizon = Vtime.sec 450
let fault_clear_at = Vtime.sec 300
let late_start = Vtime.sec 30
let default_seed = 57L

let harness ?(n = 3) ?(late = []) ?(heal = true) ?(bugs = Gmd.no_bugs) () :
    Harness_intf.packed =
  (module struct
    type nonrec env = env

    let name = if bugs = Gmd.no_bugs then "gmp" else "gmp-buggy"

    let description =
      if bugs = Gmd.no_bugs then "group membership protocol, correct"
      else "GMP with the paper's three bugs re-implanted"

    let spec = Spec.gmp
    let target = "n2"
    let default_horizon = default_horizon
    let default_seed = default_seed

    let config = { Gmd.default_config with Gmd.bugs }

    (* the paper's Figure 5 testbed: a PFI layer under every daemon's
       reliable layer, all connected and sharing one blackboard.  n1's
       layer is the first to split the sim's RNG, so scripts on it draw
       the same stream whatever [n] is *)
    let build ?scratch ~seed () =
      let sim = Sim.create ?scratch ~seed () in
      let net = Network.create sim in
      let blackboard = Blackboard.create () in
      let names = List.init n (fun i -> (Printf.sprintf "n%d" (i + 1), i + 1)) in
      let nodes =
        List.map
          (fun (name, node_id) ->
            let peers = List.filter (fun (m, _) -> m <> name) names in
            let gmd = Gmd.create ~sim ~node:name ~id:node_id ~peers ~config () in
            let rel = Rel_udp.create ~sim ~node:name () in
            let device = Network.attach net ~node:name in
            let pfi =
              Pfi_layer.create ~sim ~node:name ~stub:Gmp_stub.stub ~blackboard ()
            in
            Layer.stack
              [ Gmd.layer gmd; Rel_udp.layer rel; Pfi_layer.layer pfi; device ];
            (gmd, pfi))
          names
      in
      let pfis = List.map snd nodes in
      Pfi_layer.connect pfis;
      { sim; pfi = List.hd pfis; gmds = List.map fst nodes; n }

    let sim env = env.sim
    let pfi env = env.pfi

    let workload env =
      List.iteri
        (fun i gmd ->
          let delay =
            if List.mem (Gmd.node gmd) late then late_start else Vtime.sec i
          in
          ignore (Sim.schedule env.sim ~delay (fun () -> Gmd.start gmd)))
        env.gmds;
      (* the fault window is transient: heal and let the group re-form *)
      if heal then
        ignore
          (Sim.schedule env.sim ~delay:fault_clear_at (fun () ->
               Pfi_layer.clear_send_filter env.pfi;
               Pfi_layer.clear_receive_filter env.pfi))

    (* the trace-level guarantees, stated as oracles rather than ad-hoc
       Trace.count arithmetic: no spurious IN_TRANSITION timer may ever
       fire, and proclaim forwarding must stay below storm level *)
    let trace_oracles =
      [ Oracle.Never (Oracle.pattern ~tag:"gmp.spurious-timeout" ());
        Oracle.Count (Oracle.pattern ~tag:"gmp.proclaim-fwd" (), Oracle.Le, 100) ]

    let check env =
      let views = List.map Gmd.view env.gmds in
      let full = List.init env.n (fun i -> i + 1) in
      match views with
      | first :: rest ->
        if first.Gmd.members <> full then
          Error
            (Printf.sprintf "final view is [%s], not the full membership"
               (String.concat "," (List.map string_of_int first.Gmd.members)))
        else if
          not
            (List.for_all
               (fun v ->
                 v.Gmd.group_id = first.Gmd.group_id
                 && v.Gmd.members = first.Gmd.members)
               rest)
        then Error "daemons disagree on the final view"
        else Oracle.check trace_oracles (Sim.trace env.sim)
      | [] -> Error "no daemons"

    (* The GMP trajectory is the sequence of membership phases each
       daemon passed through: committed views (leader + membership,
       with the run-specific gid normalised away) interleaved with
       IN_TRANSITION entries.  Fuzz coverage distinguishes e.g. a run
       that re-formed the full group from one that fragmented into
       singletons. *)
    let state_of_trace trace =
      (* "gid=417 leader=1 ..." -> "gid=* leader=1 ...": the group id is
         a fresh counter, so two otherwise-identical trajectories must
         not hash differently *)
      let normalise_gid d =
        match String.index_opt d '=' with
        | Some i when i >= 3 && String.sub d (i - 3) 3 = "gid" ->
          let j = ref (i + 1) in
          while
            !j < String.length d
            && (match d.[!j] with '0' .. '9' | '-' -> true | _ -> false)
          do
            incr j
          done;
          String.sub d 0 (i + 1) ^ "*"
          ^ String.sub d !j (String.length d - !j)
        | _ -> d
      in
      let labels =
        List.fold_left
          (fun acc (e : Trace.entry) ->
            match e.tag with
            | "gmp.view" | "gmp.transition" | "gmp.singleton" ->
              let label =
                e.node ^ ":" ^ e.tag ^ " " ^ normalise_gid (Trace.detail e)
              in
              (match acc with
               | prev :: _ when String.equal prev label -> acc
               | _ -> label :: acc)
            | _ -> acc)
          [] (Trace.entries trace)
      in
      List.rev labels
  end)

let run_campaign ?bugs ?seed ?executor () =
  match
    Campaign.run ?executor (Campaign.plan ?seed (harness ?bugs ()))
  with
  | summary -> Ok summary.Campaign.s_outcomes
  | exception Campaign.Control_failure reason -> Error reason
