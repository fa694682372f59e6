module Topology = Shoalpp_sim.Topology
module Backend = Shoalpp_backend.Backend
module Backend_sim = Shoalpp_backend.Backend_sim
module Faults = Shoalpp_sim.Faults
module Netmodel = Shoalpp_sim.Netmodel
module Trace = Shoalpp_sim.Trace
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Transaction = Shoalpp_workload.Transaction
module Telemetry = Shoalpp_support.Telemetry

type 'p gen_setup = {
  protocol : 'p;
  topology : Topology.t;
  net_config : Backend_sim.net_config;
  scenario : Faults.t;
  load_tps : float;
  tx_size : int;
  warmup_ms : float;
  seed : int;
  track_logs : bool;
  trace : Trace.t option;
}

type setup = Config.t gen_setup

let default_setup ~protocol =
  {
    protocol;
    topology = Topology.gcp10 ();
    net_config = Backend_sim.default_net_config;
    scenario = Faults.none;
    load_tps = 1000.0;
    tx_size = Transaction.default_size;
    warmup_ms = 1000.0;
    seed = 7;
    track_logs = true;
    trace = None;
  }

type ('msg, 'r) gen = {
  name : string;
  scenario : Faults.t;
  trace : Trace.t option;
  world : 'msg Backend_sim.t;
  h : ('msg, 'r) Harness.t;
  mutable started : bool;
}

type t = (Replica.envelope, Replica.t) gen

let make (setup : _ gen_setup) ~name ~n ~num_dags ~hooks ~make_replica =
  (* Bind the abstract scenario to this cluster size, once: the network
     holds the one timeline, and {!start} arms the matching replica events
     from the same scenario. *)
  let assignment = Topology.assign_round_robin setup.topology ~n in
  let world =
    Backend_sim.make ~topology:setup.topology ~assignment
      ~fault:(Faults.schedule setup.scenario ~n) ~config:setup.net_config ~seed:setup.seed ()
  in
  let backend = Backend_sim.backend world in
  let telemetry = Telemetry.create () in
  let h =
    Harness.create ~backend ~n ~num_dags ~load_tps:setup.load_tps ~tx_size:setup.tx_size
      ~seed:setup.seed ~warmup_ms:setup.warmup_ms ~track_logs:setup.track_logs ~telemetry ~hooks
      ~make_replica:(make_replica ~backend ~telemetry)
      ()
  in
  { name; scenario = setup.scenario; trace = setup.trace; world; h; started = false }

let create (setup : setup) =
  let config = setup.protocol in
  let n = config.Config.committee.Shoalpp_dag.Committee.n in
  make setup ~name:config.Config.name ~n ~num_dags:config.Config.num_dags
    ~hooks:Harness.replica_hooks
    ~make_replica:(fun ~backend ~telemetry replica_id ~mempool ~on_commit ~on_caught_up ->
      Replica.create ~config ~replica_id ~backend ~mempool
        ~on_ordered:(fun o -> on_commit (Harness.commit_of_ordered o))
        ~on_caught_up ?trace:setup.trace ~telemetry
        ~byzantine:(Faults.byzantine_for setup.scenario ~n ~replica:replica_id)
        ~retain_wal:(Faults.has_recovery setup.scenario)
        ())

let engine t = t.world.Backend_sim.engine
let net t = t.world.Backend_sim.net
let backend t = Harness.backend t.h
let events_fired t = Backend_sim.events_fired t.world
let replicas t = Harness.replicas t.h
let harness t = t.h
let metrics t = Harness.ledger t.h
let telemetry t = Harness.telemetry t.h
let ledger t = Harness.ledger t.h

let partition_event t ~opened ~time ~minority =
  let groups = Printf.sprintf "minority=%d" minority in
  Telemetry.incr_named (telemetry t)
    (if opened then "fault.partitions_opened" else "fault.partitions_healed");
  match t.trace with
  | Some trace ->
    Trace.record_event trace ~time ~replica:(-1)
      (if opened then Trace.Partition_opened { groups } else Trace.Partition_healed { groups })
  | None -> ()

let schedule_scenario t =
  Faults.schedule_events t.scenario ~n:(Array.length (replicas t))
    ~schedule_at:(fun at f -> ignore (Backend.schedule_at (backend t) ~at f))
    ~crash:(Harness.crash t.h) ~recover:(Harness.recover t.h) ~partition:(partition_event t)

let start t =
  if not t.started then begin
    t.started <- true;
    let hooks = Harness.hooks t.h in
    Array.iteri
      (fun i replica ->
        (* Clients at replicas crashed from t=0 are not started (the paper
           measures surviving clients). *)
        if not (Faults.is_crashed (Netmodel.fault (net t)) ~replica:i ~time:0.0) then
          Harness.start_client t.h i;
        hooks.Harness.start replica)
      (replicas t);
    schedule_scenario t
  end

let run t ~duration_ms =
  start t;
  Backend_sim.run ~until:duration_ms t.world

type audit = Harness.audit = {
  consistent_prefixes : bool;
  prefix_length : int;
  total_segments : int;
  duplicate_orders : int;
  recovery_prefix_ok : bool;
  anchors_per_lane : int array;
}

let audit t = Harness.audit t.h

let report t ~duration_ms =
  Harness.report t.h ~name:t.name ~duration_ms
    ~telemetry:(Telemetry.snapshot (telemetry t))
    ~trace_dropped:(match t.trace with Some tr -> Trace.dropped tr | None -> 0)

let pp_report = Report.pp
