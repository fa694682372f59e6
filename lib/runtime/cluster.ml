module Topology = Shoalpp_sim.Topology
module Backend = Shoalpp_backend.Backend
module Backend_sim = Shoalpp_backend.Backend_sim
module Fault_schedule = Shoalpp_sim.Fault_schedule
module Faults = Shoalpp_sim.Faults
module Trace = Shoalpp_sim.Trace
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Transaction = Shoalpp_workload.Transaction
module Telemetry = Shoalpp_support.Telemetry

type setup = {
  protocol : Config.t;
  topology : Topology.t;
  net_config : Backend_sim.net_config;
  fault : Fault_schedule.t;
  scenario : Faults.t;
  load_tps : float;
  tx_size : int;
  warmup_ms : float;
  seed : int;
  track_logs : bool;
  trace : Shoalpp_sim.Trace.t option;
}

let default_setup ~protocol =
  {
    protocol;
    topology = Topology.gcp10 ();
    net_config = Backend_sim.default_net_config;
    fault = Fault_schedule.none;
    scenario = Faults.none;
    load_tps = 1000.0;
    tx_size = Transaction.default_size;
    warmup_ms = 1000.0;
    seed = 7;
    track_logs = true;
    trace = None;
  }

type t = {
  setup : setup;
  world : Replica.envelope Backend_sim.t;
  h : Harness.t;
  mutable started : bool;
  mutable fault : Fault_schedule.t;
}

let create setup =
  let committee = setup.protocol.Config.committee in
  let n = committee.Shoalpp_dag.Committee.n in
  (* Bind the abstract scenario to this cluster size; from here on a single
     Fault_schedule.t drives both the network and the scheduled replica events. *)
  let fault = Faults.schedule setup.scenario ~n ~base:setup.fault in
  let assignment = Topology.assign_round_robin setup.topology ~n in
  let world =
    Backend_sim.make ~topology:setup.topology ~assignment ~fault ~config:setup.net_config
      ~seed:setup.seed ()
  in
  let backend = Backend_sim.backend world in
  let telemetry = Telemetry.create () in
  let h =
    Harness.create ~backend ~n ~num_dags:setup.protocol.Config.num_dags
      ~load_tps:setup.load_tps ~tx_size:setup.tx_size ~seed:setup.seed
      ~warmup_ms:setup.warmup_ms ~track_logs:setup.track_logs ~telemetry
      ~make_replica:(fun replica_id ~mempool ~on_ordered ~on_caught_up ->
        Replica.create ~config:setup.protocol ~replica_id ~backend ~mempool ~on_ordered
          ~on_caught_up ?trace:setup.trace ~telemetry
          ~byzantine:(Faults.byzantine_for setup.scenario ~n ~replica:replica_id)
          ~retain_wal:(Faults.has_recovery setup.scenario)
          ())
      ()
  in
  { setup; world; h; started = false; fault }

let engine t = t.world.Backend_sim.engine
let net t = t.world.Backend_sim.net
let backend t = Harness.backend t.h
let events_fired t = Backend_sim.events_fired t.world
let replicas t = Harness.replicas t.h
let metrics t = Harness.metrics t.h
let telemetry t = Harness.telemetry t.h
let ledger t = Harness.ledger t.h

let set_fault t fault =
  t.fault <- fault;
  Backend_sim.set_fault t.world fault

let recover_now t i =
  set_fault t (Fault_schedule.recover t.fault ~replica:i ~at:(Backend.now (backend t)));
  Harness.recover t.h i

let trace_partition t ~time kind =
  match t.setup.trace with
  | Some trace -> Trace.record_event trace ~time ~replica:(-1) kind
  | None -> ()

let schedule_scenario t =
  let n = Array.length (replicas t) in
  let scenario = t.setup.scenario in
  let at time f = ignore (Backend.schedule_at (backend t) ~at:time f) in
  List.iter
    (fun (replica, time) -> at time (fun () -> Harness.crash t.h replica))
    (Faults.timed_crashes scenario ~n);
  List.iter
    (fun (replica, _crash_at, recover_at) -> at recover_at (fun () -> recover_now t replica))
    (Faults.crash_recoveries scenario ~n);
  List.iter
    (fun (from_time, until_time, minority) ->
      let groups = Printf.sprintf "minority=%d" minority in
      at from_time (fun () ->
          Telemetry.incr_named (telemetry t) "fault.partitions_opened";
          trace_partition t ~time:from_time (Trace.Partition_opened { groups }));
      if until_time < infinity then
        at until_time (fun () ->
            Telemetry.incr_named (telemetry t) "fault.partitions_healed";
            trace_partition t ~time:until_time (Trace.Partition_healed { groups })))
    (Faults.partition_windows scenario ~n)

let start t =
  if not t.started then begin
    t.started <- true;
    Array.iteri
      (fun i replica ->
        (* Clients at replicas crashed from t=0 are not started (the paper
           measures surviving clients). *)
        if not (Fault_schedule.is_crashed t.fault ~replica:i ~time:0.0) then
          Harness.start_client t.h i;
        Replica.start replica)
      (replicas t);
    schedule_scenario t
  end

let run t ~duration_ms =
  start t;
  Backend_sim.run ~until:duration_ms t.world

let crash_now t i =
  set_fault t (Fault_schedule.crash t.fault ~replica:i ~at:(Backend.now (backend t)));
  Harness.crash t.h i

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
  Harness.report t.h ~name:t.setup.protocol.Config.name ~duration_ms
    ~telemetry:(Telemetry.snapshot (telemetry t))
    ~trace_dropped:(match t.setup.trace with Some tr -> Trace.dropped tr | None -> 0)

let pp_report = Report.pp
