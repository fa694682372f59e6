(** A real-time Shoal++ deployment: the same {!Shoalpp_core.Replica}s the
    simulator runs, executed on a wall clock over a real transport.

    This is the sans-I/O payoff made concrete — {!Cluster} and [Node] build
    the {e identical} protocol objects and differ only in the
    {!Shoalpp_backend.Backend} they pass in: the deterministic simulator
    there, {!Shoalpp_backend.Backend_realtime} here (in-process loopback or
    TCP with length-prefixed signed messages). Both run on the shared
    {!Harness} core — mempools, clients, commit sink, crash/recover
    bookkeeping, audit and report.

    All replicas live in this process today; nothing in the harness or the
    wire format assumes it.

    Invariants:
    - no protocol module is re-parameterized: replicas, clients, WALs and
      telemetry are constructed exactly as under the simulator;
    - {!audit} is the simulated cluster's audit ({!Harness.audit}):
      pairwise common-prefix agreement of the replicas' ordered logs in
      global-sequence coordinates, no transaction ordered twice by one
      replica, and every restarted replica's rebuilt log extending its
      pre-crash log; {!Harness.ok} is the single verdict. *)

type transport =
  | Inproc  (** in-process loopback; nothing is serialized *)
  | Tcp of int
      (** TCP on 127.0.0.1, replica [i] listening on [base_port + i]
          ([0] lets the kernel pick; read back with {!tcp_ports}). Every
          message crosses the codec ({!Shoalpp_backend.Backend_realtime.framed}:
          one encode and one frame per send or broadcast, above the delay
          shim; one copy and an in-place decode per received frame; the
          replica then checks signatures and aggregates as received), with
          per-peer write queues and lazy reconnect with capped backoff
          ({!Shoalpp_backend.Tcp_transport}). *)

type setup = {
  protocol : Shoalpp_core.Config.t;
  load_tps : float;  (** aggregate Poisson load, split evenly over replicas *)
  tx_size : int;
  warmup_ms : float;
  seed : int;
  transport : transport;
  delays_ms : float array array option;
      (** Optional geography shim: [d.(src).(dst)] one-way milliseconds
          added sender-side to every message, over any transport
          ({!Shoalpp_backend.Backend_realtime.delayed}). [None] (default)
          adds nothing. Build one from a region topology with
          {!Shoalpp_sim.Topology.delay_matrix}. *)
  trace : Shoalpp_sim.Trace.t option;
  domains : int;
      (** 1 (default): everything on the calling domain, exactly the
          pre-multicore node. > 1: each of the k staggered DAG lanes runs
          on its own executor domain and all inbound signature checking
          moves to a {!Shoalpp_backend.Verify_pool} with [domains] worker
          domains; the commit interleave stays on the main domain, merged
          by per-lane sequence number, so the global order is the same
          deterministic function of the per-lane segment sequences at any
          domain count (see docs/CONCURRENCY.md). *)
  verify_delay_us : float;
      (** Modeled verification service time per SIGNATURE checked
          ({!Shoalpp_backend.Crypto_cost}; default 0): one per vote /
          certificate / header, plus one per transaction in a proposal's
          batch — the client-signature term that scales with throughput
          and cannot be amortized by batching. Charged inline on the
          event loop at [domains = 1] and inside the verify-pool job at
          [domains > 1] — the same charge at every domain count, so
          throughput comparisons vary only where it is paid. Ignored when
          the protocol runs with signature checks off. *)
  scenario : Shoalpp_sim.Faults.t;
      (** Fault scenario (default none). The node realizes its restarts
          only (see {!check_scenario}): each crashes a replica and its
          client, then restarts it through
          {!Shoalpp_core.Replica.recover} — checkpoint restore and WAL
          replay, then peer catch-up sync when checkpointing is on — with
          the ledger and the duplicate audit muted until catch-up, and the
          pre-crash log kept for the [recovery_prefix_ok] audit. WAL
          payloads are retained iff it recovers a replica. *)
}

val default_setup : protocol:Shoalpp_core.Config.t -> setup
(** 200 tps, paper tx size, no warmup, loopback transport, no trace, one
    domain, no faults. *)

val check_scenario : domains:int -> Shoalpp_sim.Faults.t -> (unit, string) result
(** [Ok] iff the node can realize the scenario: every spec is a crash that
    recovers, at a time after 0, and there is no recovery at
    [domains > 1] (lane executors cannot be torn down mid-run). *)

val write_envelope : Shoalpp_codec.Wire.Writer.t -> Shoalpp_core.Replica.envelope -> unit
(** The socket wire format: one DAG-id byte, then the signed protocol
    message ({!Shoalpp_dag.Types.write_message}), certificates with their
    aggregate. Written into the caller's writer, so the TCP codec step puts
    it straight into a frame. *)

val read_envelope : string -> pos:int -> Shoalpp_core.Replica.envelope option
(** Decode the envelope that starts at [pos] and runs to the end of the
    string, in place; [None] if it is malformed. Signatures are not
    checked here — the replica's validation does that. *)

val encode_envelope : Shoalpp_core.Replica.envelope -> string
(** [write_envelope] into a fresh writer. *)

val decode_envelope : cluster_seed:int -> string -> Shoalpp_core.Replica.envelope option
(** [read_envelope s ~pos:0]. [cluster_seed] is ignored: decoding needs no
    keys now that the aggregate travels on the wire. The argument stays
    because the benchmark's probe ([perfbench/probe.ml]), which must not
    change, calls it with one. *)

type t

val create : setup -> t
(** Raises [Invalid_argument] if {!check_scenario} refuses
    [setup.scenario]. *)

val start : t -> unit
(** Start replicas and clients (idempotent). Timers arm immediately but
    only fire once {!run} drives the loop. *)

val run : t -> duration_ms:float -> unit
(** {!start} if needed, then drive the wall-clock loop for [duration_ms]
    real milliseconds; stops the clients on return. Can be called again to
    extend the run. With [domains > 1] this also spawns the lane domains
    on entry and quiesces them on exit (pool drained, lanes joined, merge
    backlog flushed) — after return no other domain is running. *)

val catching_up : t -> int -> bool
(** True while replica [i]'s recovery (replay or peer sync) is in flight. *)

val executor : t -> Shoalpp_backend.Backend_realtime.t

val tcp_ports : t -> int array option
(** Listening ports of the TCP transport, [None] unless
    [setup.transport = Tcp _]. Resolved after bind, so meaningful with
    [Tcp 0]. *)

val tcp_net_stats : t -> Shoalpp_backend.Tcp_transport.net_stats option
(** Flush / reconnect counters of the TCP transport ([None]
    otherwise). *)

val backend : t -> Shoalpp_core.Replica.envelope Shoalpp_backend.Backend.t
val replicas : t -> Shoalpp_core.Replica.t array

val metrics : t -> Metrics.t
(** The same value as {!ledger}. *)

val telemetry : t -> Shoalpp_support.Telemetry.t

val ledger : t -> Ledger.t
(** The latency ledger, registered on the node's main telemetry: one entry
    per origin transaction at its origin's commit. Backs the report, the
    admin endpoint's [/ledger] tail and the stage x rule x DAG
    breakdown. *)

val domains : t -> int
(** The configured [setup.domains]. *)

val verify_pool : t -> Shoalpp_backend.Verify_pool.t option
(** The multicore mode's verification pool ([None] at [domains = 1]);
    exposed for the CLI's shutdown summary and for tests. *)

val telemetry_snapshot : t -> Shoalpp_support.Telemetry.snapshot
(** The full end-of-run registry: the main registry merged with every
    lane domain's (counters add, histograms merge), plus the main loop's
    counters in whole microseconds or counts
    ({!Shoalpp_backend.Backend_realtime.loop_stats}):
    [backend.loop_turns], [backend.loop_sleeps], [backend.loop_timeouts],
    [backend.select_cpu_us], [backend.timer_us], [backend.io_us] and
    [backend.loop_cpu_us]; over TCP also
    ({!Shoalpp_backend.Tcp_transport.net_stats})
    [backend.tcp_read_us], [backend.tcp_deliver_us],
    [backend.tcp_flushes] and [backend.tcp_write_us]. The select and loop
    CPU are the main loop thread's own, so at [domains > 1] they leave out
    the lanes and the verify pool. Only meaningful after {!run} has
    returned — mid-run scrapes should use {!live_snapshot}. *)

val live_snapshot : t -> Shoalpp_support.Telemetry.snapshot
(** The main registry plus the main loop's [backend.*] counters: what the
    admin endpoint serves mid-run, read on the loop's own domain without
    racing the lane domains. *)

val trace_events : t -> Shoalpp_sim.Trace.event list
(** All trace events — main ring plus the per-lane-domain rings — in one
    time-sorted stream. Equals [Trace.events (trace t)] at [domains = 1].
    Post-run only, like {!telemetry_snapshot}. *)

val trace_dropped : t -> int
(** Events dropped across all rings. *)

val arm_live_gauges : ?interval_ms:float -> t -> unit
(** Arm a repeating timer (default every 250 ms) refreshing the
    [live.uptime_ms] / [live.committed] / [live.commit_tps] /
    [live.trace_dropped] gauges from the running node, so an admin scrape
    mid-run sees current values rather than the shutdown snapshot. Call
    before {!run}; the timer dies with the executor. *)

val now_ms : t -> float
(** Wall milliseconds since the executor was created. *)

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

val ordered_ids : t -> replica:int -> (int * int * int) list
(** The replica's ordered segment log as [(dag, round, author)] anchor
    identities, oldest first. Basis of the golden determinism test: two
    fault-free runs with the same seed agree on this sequence up to the
    shorter length at {e any} [domains] value, because the merge is by
    per-lane sequence number, never completion or arrival order. *)

val report : t -> duration_ms:float -> Report.t
