(** Wire up and run a whole simulated deployment of any protocol: n
    replicas, geo topology, Poisson clients, fault schedule, metrics.
    Shoal++ (and its DAG variants) runs here as {!t}; the Jolteon and
    Mysticeti baselines run on the same code through {!make}, contributing
    only their replicas and {!Harness.hooks}.

    The declarative {!Shoalpp_sim.Faults} scenario is the run's one fault
    input, bound to the cluster size here: its crashes/partitions/drops
    become the network's fault timeline, its Byzantine roles become
    per-replica misbehaviour closures (built by each protocol's
    [make_replica]), and its timed events (mid-run crash, recovery,
    partition open/heal) are armed on the engine when the run starts — so
    one scenario value drives the network view and the replica view
    consistently.

    The run is judged by the shared {!Harness} audit, the same code that
    judges a realtime {!Node} run: every pair of replicas' global logs
    agree on their common prefix in global-sequence coordinates, no replica
    orders the same transaction twice (outside WAL replay, which re-orders
    history by design), and a recovered replica's rebuilt log extends its
    pre-crash log. {!Harness.ok} is the single verdict.

    Invariants:
    - the scenario is materialized exactly once, at {!make}, against this
      cluster's size, into the network's timeline, which nothing changes
      afterwards; the replica-side events (crash, recovery, partition
      traces) derive from the same scenario and cannot disagree;
    - runs are a pure function of the setup (seed included): re-creating a
      cluster from equal setups and running to the same horizon yields
      identical logs, metrics and telemetry. *)

type 'p gen_setup = {
  protocol : 'p;  (** the protocol's own parameters *)
  topology : Shoalpp_sim.Topology.t;
  net_config : Shoalpp_backend.Backend_sim.net_config;
  scenario : Shoalpp_sim.Faults.t;
      (** declarative fault scenario, materialized against this cluster's
          size on {!make} *)
  load_tps : float;  (** aggregate, split evenly over non-crashed-at-0 replicas *)
  tx_size : int;
  warmup_ms : float;
  seed : int;
  track_logs : bool;  (** retain per-replica logs for the consistency audit *)
  trace : Shoalpp_sim.Trace.t option;
      (** shared typed-event trace; [None] (the default) records nothing *)
}
(** One run's setup: the protocol's parameters plus everything the harness
    shares across protocols. *)

type setup = Shoalpp_core.Config.t gen_setup

val default_setup : protocol:'p -> 'p gen_setup
(** gcp10 topology, default net config, no fault scenario, 1000 tps,
    paper tx size, 1 s warmup, seed 7, log tracking on, no trace. *)

type ('msg, 'r) gen
(** A cluster of replicas of type ['r] exchanging ['msg]. *)

type t = (Shoalpp_core.Replica.envelope, Shoalpp_core.Replica.t) gen

val make :
  'p gen_setup ->
  name:string ->
  n:int ->
  num_dags:int ->
  hooks:'r Harness.hooks ->
  make_replica:
    (backend:'msg Shoalpp_backend.Backend.t ->
    telemetry:Shoalpp_support.Telemetry.t ->
    int ->
    mempool:Shoalpp_workload.Mempool.t ->
    on_commit:(Harness.commit -> unit) ->
    on_caught_up:(unit -> unit) ->
    'r) ->
  ('msg, 'r) gen
(** Build the simulated world and the harness, then each replica with
    [make_replica ~backend ~telemetry i ~mempool ~on_commit ~on_caught_up],
    which must register replica [i]'s message handler on [backend] and feed
    every ordered unit to [on_commit]. [n] is the replica count, [name]
    names the report. *)

val create : setup -> t
(** A Shoal++ cluster: {!make} with {!Shoalpp_core.Replica} and
    {!Harness.replica_hooks}. *)

val engine : ('msg, 'r) gen -> Shoalpp_sim.Engine.t
val net : ('msg, 'r) gen -> 'msg Shoalpp_sim.Netmodel.t

val backend : ('msg, 'r) gen -> 'msg Shoalpp_backend.Backend.t
(** The backend view the replicas run against. *)

val events_fired : ('msg, 'r) gen -> int
(** Simulation events fired so far (reporting). *)

val replicas : ('msg, 'r) gen -> 'r array

val harness : ('msg, 'r) gen -> ('msg, 'r) Harness.t
(** The run harness, for faults a scenario does not describe (a restart
    with wiped disks: [Harness.recover ~wipe:true]). *)

val metrics : ('msg, 'r) gen -> Metrics.t
(** The same value as {!ledger}. *)

val telemetry : ('msg, 'r) gen -> Shoalpp_support.Telemetry.t
(** The cluster's shared metric registry (always created; counters aggregate
    across replicas, the ledger's latency histograms record each
    transaction once at its origin). *)

val ledger : ('msg, 'r) gen -> Ledger.t
(** The latency ledger (always created, registered on the shared
    telemetry, warmup cut at [setup.warmup_ms]): one entry per origin
    transaction at its origin's commit, outside WAL replay. Recording is
    effect-free beyond the ledger and the registry, so traced runs stay
    byte-identical. *)

val run : ('msg, 'r) gen -> duration_ms:float -> unit
(** Start everything (if not yet started) and run the simulation clock to
    [duration_ms]. Can be called repeatedly with increasing horizons. *)

type audit = Harness.audit = {
  consistent_prefixes : bool;
  prefix_length : int;
  total_segments : int;
  duplicate_orders : int;
  recovery_prefix_ok : bool;
  anchors_per_lane : int array;
}
(** See {!Harness.audit}. *)

val audit : ('msg, 'r) gen -> audit

val report : ('msg, 'r) gen -> duration_ms:float -> Report.t
val pp_report : Format.formatter -> Report.t -> unit
