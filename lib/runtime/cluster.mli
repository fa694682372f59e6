(** Wire up and run a whole deployment: n replicas of a configured protocol,
    geo topology, Poisson clients, fault schedule, metrics.

    The declarative {!Shoalpp_sim.Faults} scenario is bound to the cluster
    size here: its crashes/partitions/drops extend the base fault schedule,
    its Byzantine roles become per-replica misbehaviour closures, and its
    timed events (mid-run crash, WAL-replay recovery, partition open/heal)
    are scheduled on the engine at {!start} — so one scenario value drives
    the network view and the replica view consistently.

    The run is judged by the shared {!Harness} audit, the same code that
    judges a realtime {!Node} run: every pair of replicas' global logs
    agree on their common prefix in global-sequence coordinates, no replica
    orders the same transaction twice (outside WAL replay, which re-orders
    history by design), and a recovered replica's rebuilt log extends its
    pre-crash log. {!Harness.ok} is the single verdict.

    Invariants:
    - the scenario is materialized exactly once, at {!create}, against this
      cluster's size — the network fault view and the replica-side events
      (crash, WAL-replay recovery, partition traces) derive from the same
      schedule and cannot disagree;
    - runs are a pure function of the setup (seed included): re-creating a
      cluster from equal setups and running to the same horizon yields
      identical logs, metrics and telemetry. *)

type t

type setup = {
  protocol : Shoalpp_core.Config.t;
  topology : Shoalpp_sim.Topology.t;
  net_config : Shoalpp_backend.Backend_sim.net_config;
  fault : Shoalpp_sim.Fault_schedule.t;
  scenario : Shoalpp_sim.Faults.t;
      (** declarative fault scenario, materialized against this cluster's
          size on {!create}; composes on top of [fault] *)
  load_tps : float;  (** aggregate, split evenly over non-crashed-at-0 replicas *)
  tx_size : int;
  warmup_ms : float;
  seed : int;
  track_logs : bool;  (** retain per-replica logs for the consistency audit *)
  trace : Shoalpp_sim.Trace.t option;
      (** shared typed-event trace; [None] (the default) records nothing *)
}

val default_setup : protocol:Shoalpp_core.Config.t -> setup
(** gcp10 topology, default net config, no faults, no scenario, 1000 tps,
    paper tx size, 1 s warmup, log tracking on, no trace. *)

val create : setup -> t
val engine : t -> Shoalpp_sim.Engine.t
val net : t -> Shoalpp_core.Replica.envelope Shoalpp_sim.Netmodel.t

val backend : t -> Shoalpp_core.Replica.envelope Shoalpp_backend.Backend.t
(** The backend view the replicas run against. *)

val events_fired : t -> int
(** Simulation events fired so far (reporting). *)

val replicas : t -> Shoalpp_core.Replica.t array

val metrics : t -> Metrics.t
(** The same value as {!ledger}. *)

val telemetry : t -> Shoalpp_support.Telemetry.t
(** The cluster's shared metric registry (always created; counters aggregate
    across replicas, the ledger's latency histograms record each
    transaction once at its origin). *)

val ledger : t -> Ledger.t
(** The latency ledger (always created, registered on the shared
    telemetry, warmup cut at [setup.warmup_ms]): one entry per origin
    transaction at its origin's commit, outside WAL replay. Recording is
    effect-free beyond the ledger and the registry, so traced runs stay
    byte-identical. *)

val run : t -> duration_ms:float -> unit
(** Start everything (if not yet started) and run the simulation clock to
    [duration_ms]. Can be called repeatedly with increasing horizons. *)

val crash_now : t -> int -> unit
(** Crash a replica immediately (also updates the network fault view). *)

val recover_now : t -> int -> unit
(** Recover a crashed replica immediately: mark it reachable again, replay
    its WAL through fresh DAG lanes ({!Shoalpp_core.Replica.recover}), and
    restart its client. The pre-crash log is snapshotted for the
    [recovery_prefix_ok] audit. *)

type audit = Harness.audit = {
  consistent_prefixes : bool;
  prefix_length : int;
  total_segments : int;
  duplicate_orders : int;
  recovery_prefix_ok : bool;
  anchors_per_lane : int array;
}
(** See {!Harness.audit}. *)

val audit : t -> audit

val report : t -> duration_ms:float -> Report.t
val pp_report : Format.formatter -> Report.t -> unit
