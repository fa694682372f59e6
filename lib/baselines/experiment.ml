module Cluster = Shoalpp_runtime.Cluster
module Harness = Shoalpp_runtime.Harness
module Ledger = Shoalpp_runtime.Ledger
module Report = Shoalpp_runtime.Report
module Topology = Shoalpp_sim.Topology
module Fault_schedule = Shoalpp_sim.Fault_schedule
module Committee = Shoalpp_dag.Committee
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Transaction = Shoalpp_workload.Transaction

type system =
  | Shoalpp
  | Shoal
  | Bullshark
  | Shoalpp_faster_anchors
  | Shoalpp_more_faster_anchors
  | Shoal_more_dags
  | Bullshark_more_dags
  | Jolteon
  | Mysticeti
  | Custom of Config.t

let system_name = function
  | Shoalpp -> "shoal++"
  | Shoal -> "shoal"
  | Bullshark -> "bullshark"
  | Shoalpp_faster_anchors -> "shoal++ faster-anchors"
  | Shoalpp_more_faster_anchors -> "shoal++ more-faster-anchors"
  | Shoal_more_dags -> "shoal more-dags"
  | Bullshark_more_dags -> "bullshark more-dags"
  | Jolteon -> "jolteon"
  | Mysticeti -> "mysticeti"
  | Custom c -> c.Config.name

let all_dag_systems =
  [ Shoalpp; Shoal; Bullshark; Shoalpp_faster_anchors; Shoalpp_more_faster_anchors;
    Shoal_more_dags; Bullshark_more_dags ]

type params = {
  n : int;
  load_tps : float;
  duration_ms : float;
  warmup_ms : float;
  topology : Topology.t;
  crashes : int;
  scenario : Shoalpp_sim.Faults.t;
  drop_spec : (int * float * float) option;
  round_timeout_ms : float option;
  stagger_ms : float option;
  num_dags : int option;
  net_config : Shoalpp_sim.Netmodel.config option;
  verify_signatures : bool;
  tx_size : int;
  batch_cap : int;
  checkpoint_interval : int;
  seed : int;
  trace : bool;
  trace_capacity : int;
}

let default_params =
  {
    n = 16;
    load_tps = 1000.0;
    duration_ms = 30_000.0;
    warmup_ms = 3_000.0;
    topology = Topology.gcp10 ();
    crashes = 0;
    scenario = Shoalpp_sim.Faults.none;
    drop_spec = None;
    round_timeout_ms = None;
    stagger_ms = None;
    num_dags = None;
    net_config = None;
    verify_signatures = true;
    tx_size = Transaction.default_size;
    batch_cap = 500;
    checkpoint_interval = 0;
    seed = 1;
    trace = false;
    trace_capacity = 65536;
  }

let clean_net_config =
  {
    Shoalpp_sim.Netmodel.default_config with
    Shoalpp_sim.Netmodel.jitter_ms = 0.0;
    epoch_ms = 0.0;
    epoch_extra_mean_ms = 0.0;
  }

type outcome = {
  report : Report.t;
  audit_ok : bool;
  throughput_series : (float * float) list;
  latency_series : (float * float) list;
  requeued : int;
  events_fired : int;
  events : Shoalpp_sim.Trace.event list;
}

let median_one_way topology =
  let k = Topology.num_regions topology in
  let delays = ref [] in
  for i = 0 to k - 1 do
    for j = 0 to k - 1 do
      if i <> j then delays := Topology.one_way_ms topology i j :: !delays
    done
  done;
  match List.sort compare !delays with
  | [] -> Topology.one_way_ms topology 0 0
  | l -> List.nth l (List.length l / 2)

let fault_of params =
  let fault = Fault_schedule.none in
  let fault =
    if params.crashes > 0 then
      Fault_schedule.crash_many fault
        ~replicas:(List.init params.crashes (fun i -> params.n - 1 - i))
        ~at:0.0
    else fault
  in
  match params.drop_spec with
  | None -> fault
  | Some (k, rate, from_time) ->
    Fault_schedule.drop_egress fault ~replicas:(List.init k Fun.id) ~rate ~from_time ()

let dag_config system params =
  let committee = Committee.make ~n:params.n ~cluster_seed:params.seed () in
  let base =
    match system with
    | Shoalpp -> Config.shoalpp ~committee
    | Shoal -> Config.shoal ~committee
    | Bullshark -> Config.bullshark ~committee
    | Shoalpp_faster_anchors ->
      { (Config.shoal ~committee) with Config.fast_commit = true; name = "shoal++ faster-anchors" }
    | Shoalpp_more_faster_anchors ->
      {
        (Config.shoalpp ~committee) with
        Config.num_dags = 1;
        name = "shoal++ more-faster-anchors";
      }
    | Shoal_more_dags -> Config.with_dags (Config.shoal ~committee) 3
    | Bullshark_more_dags -> Config.with_dags (Config.bullshark ~committee) 3
    | Custom c -> c
    | Jolteon | Mysticeti -> invalid_arg "Experiment.dag_config: not a DAG-family system"
  in
  let base = { base with Config.batch_cap = params.batch_cap } in
  let base =
    match params.num_dags with Some k -> { (Config.with_dags base k) with Config.name = base.Config.name } | None -> base
  in
  let base =
    match params.round_timeout_ms with Some ms -> Config.round_timeout base ms | None -> base
  in
  let stagger =
    match params.stagger_ms with Some s -> s | None -> median_one_way params.topology
  in
  let base = { base with Config.stagger_ms = stagger } in
  let base = Config.with_checkpoint_interval base params.checkpoint_interval in
  if params.verify_signatures then base else Config.without_signature_checks base

(* Every system runs on the one simulated cluster; only the protocol's
   own parameters differ. *)
let run system params =
  let trace =
    if params.trace then
      Some (Shoalpp_sim.Trace.create ~enabled:true ~capacity:params.trace_capacity ())
    else None
  in
  let setup protocol =
    {
      Cluster.protocol;
      topology = params.topology;
      net_config = Option.value ~default:Shoalpp_sim.Netmodel.default_config params.net_config;
      fault = fault_of params;
      scenario = params.scenario;
      load_tps = params.load_tps;
      tx_size = params.tx_size;
      warmup_ms = params.warmup_ms;
      seed = params.seed;
      track_logs = true;
      trace;
    }
  in
  let finish cluster ~requeued =
    Cluster.run cluster ~duration_ms:params.duration_ms;
    {
      report = Cluster.report cluster ~duration_ms:params.duration_ms;
      audit_ok = Harness.ok (Cluster.audit cluster);
      throughput_series = Ledger.throughput_series (Cluster.ledger cluster);
      latency_series = Ledger.latency_series (Cluster.ledger cluster);
      requeued = Array.fold_left (fun acc r -> acc + requeued r) 0 (Cluster.replicas cluster);
      events_fired = Cluster.events_fired cluster;
      events = (match trace with Some tr -> Shoalpp_sim.Trace.events tr | None -> []);
    }
  in
  let committee () = Committee.make ~n:params.n ~cluster_seed:params.seed () in
  let round_timeout default = Option.value ~default params.round_timeout_ms in
  match system with
  | Jolteon ->
    let protocol =
      {
        (Jolteon.default_setup ~committee:(committee ())) with
        Jolteon.round_timeout_ms = round_timeout 1500.0;
      }
    in
    finish (Jolteon.create (setup protocol)) ~requeued:(fun _ -> 0)
  | Mysticeti ->
    let protocol =
      {
        (Mysticeti.default_setup ~committee:(committee ())) with
        Mysticeti.round_timeout_ms = round_timeout 1000.0;
        batch_cap = params.batch_cap;
        verify_signatures = params.verify_signatures;
      }
    in
    finish (Mysticeti.create (setup protocol)) ~requeued:(fun _ -> 0)
  | _ -> finish (Cluster.create (setup (dag_config system params))) ~requeued:Replica.requeued
