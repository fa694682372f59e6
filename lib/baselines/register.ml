module Experiment = Shoalpp_runtime.Experiment
module Ledger = Shoalpp_runtime.Ledger
module Committee = Shoalpp_dag.Committee
module Fault_schedule = Shoalpp_sim.Fault_schedule

let fault_of (p : Experiment.params) =
  let fault = Fault_schedule.none in
  let fault =
    if p.Experiment.crashes > 0 then
      Fault_schedule.crash_many fault
        ~replicas:(List.init p.Experiment.crashes (fun i -> p.Experiment.n - 1 - i))
        ~at:0.0
    else fault
  in
  match p.Experiment.drop_spec with
  | None -> fault
  | Some (k, rate, from_time) ->
    Fault_schedule.drop_egress fault ~replicas:(List.init k Fun.id) ~rate ~from_time ()

let trace_of (p : Experiment.params) =
  if p.Experiment.trace then
    Some
      (Shoalpp_sim.Trace.create ~enabled:true ~capacity:p.Experiment.trace_capacity ())
  else None

let events_of_trace = function Some tr -> Shoalpp_sim.Trace.events tr | None -> []

let jolteon_runner (p : Experiment.params) : Experiment.outcome =
  let committee = Committee.make ~n:p.Experiment.n ~cluster_seed:p.Experiment.seed () in
  let trace = trace_of p in
  let setup =
    {
      (Jolteon.default_setup ~committee) with
      Jolteon.topology = Experiment.make_topology p.Experiment.topology;
      net_config =
        Option.value ~default:Shoalpp_backend.Backend_sim.default_net_config
        p.Experiment.net_config;
      fault = fault_of p;
      scenario = p.Experiment.scenario;
      load_tps = p.Experiment.load_tps;
      tx_size = p.Experiment.tx_size;
      warmup_ms = p.Experiment.warmup_ms;
      round_timeout_ms =
        Option.value ~default:1500.0 p.Experiment.round_timeout_ms;
      verify_signatures = p.Experiment.verify_signatures;
      seed = p.Experiment.seed;
      trace;
    }
  in
  let c = Jolteon.create setup in
  Jolteon.run c ~duration_ms:p.Experiment.duration_ms;
  {
    Experiment.report = Jolteon.report c ~duration_ms:p.Experiment.duration_ms;
    audit_ok = Jolteon.committed_consistent c;
    throughput_series = Ledger.throughput_series (Jolteon.ledger c);
    latency_series = Ledger.latency_series (Jolteon.ledger c);
    requeued = 0;
    events_fired = Jolteon.events_fired c;
    events = events_of_trace trace;
  }

let mysticeti_runner (p : Experiment.params) : Experiment.outcome =
  let committee = Committee.make ~n:p.Experiment.n ~cluster_seed:p.Experiment.seed () in
  let trace = trace_of p in
  let setup =
    {
      (Mysticeti.default_setup ~committee) with
      Mysticeti.topology = Experiment.make_topology p.Experiment.topology;
      net_config =
        Option.value ~default:Shoalpp_backend.Backend_sim.default_net_config
        p.Experiment.net_config;
      fault = fault_of p;
      scenario = p.Experiment.scenario;
      load_tps = p.Experiment.load_tps;
      tx_size = p.Experiment.tx_size;
      warmup_ms = p.Experiment.warmup_ms;
      batch_cap = p.Experiment.batch_cap;
      round_timeout_ms =
        Option.value ~default:1000.0 p.Experiment.round_timeout_ms;
      verify_signatures = p.Experiment.verify_signatures;
      seed = p.Experiment.seed;
      trace;
    }
  in
  let c = Mysticeti.create setup in
  Mysticeti.run c ~duration_ms:p.Experiment.duration_ms;
  {
    Experiment.report = Mysticeti.report c ~duration_ms:p.Experiment.duration_ms;
    audit_ok = Mysticeti.logs_consistent c;
    throughput_series = Ledger.throughput_series (Mysticeti.ledger c);
    latency_series = Ledger.latency_series (Mysticeti.ledger c);
    requeued = 0;
    events_fired = Mysticeti.events_fired c;
    events = events_of_trace trace;
  }

let registered = ref false

let register () =
  if not !registered then begin
    registered := true;
    Experiment.register_extra ~name:"jolteon" jolteon_runner;
    Experiment.register_extra ~name:"mysticeti" mysticeti_runner
  end
