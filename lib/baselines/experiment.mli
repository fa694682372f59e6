(** One-call experiment runner: pick a system, a deployment, a load and a
    fault schedule; get back the paper-style report plus time series and the
    safety audit. This is the single entry point used by the benchmark
    harness, the CLI and the examples.

    It lives beside the baselines because it is the one module that sees
    every system: all of them — the DAG family, Jolteon and Mysticeti — run
    on the same {!Shoalpp_runtime.Cluster} with the same load, faults,
    commit sink and audit; only the protocol's own parameters differ.

    Invariants:
    - {!run} is deterministic: equal [params] (same seed, same scenario)
      yield identical outcomes, for every system — fault injection draws no
      randomness of its own;
    - [audit_ok] is {!Shoalpp_runtime.Harness.ok} over the full safety
      audit (prefix consistency with anchor digests, no duplicate
      ordering, recovery prefix extension) for every system. *)

type system =
  | Shoalpp  (** full Shoal++: fast commit + multi-anchor + 3 DAGs *)
  | Shoal
  | Bullshark
  | Shoalpp_faster_anchors  (** Fig 6 ablation: Shoal + Fast Direct Commit *)
  | Shoalpp_more_faster_anchors  (** + multi-anchor rounds (still 1 DAG) *)
  | Shoal_more_dags  (** Fig 5 "Shoal More DAGs" *)
  | Bullshark_more_dags
  | Jolteon
  | Mysticeti
  | Custom of Shoalpp_core.Config.t
      (** any DAG-family configuration (ablations, k-sweeps) *)

val system_name : system -> string
val all_dag_systems : system list

type params = {
  n : int;
  load_tps : float;
  duration_ms : float;
  warmup_ms : float;
  topology : Shoalpp_sim.Topology.t;
      (** e.g. {!Shoalpp_sim.Topology.gcp10}, or any
          {!Shoalpp_sim.Topology.of_spec} *)
  crashes : int;  (** crash this many replicas (highest ids) at t=0 *)
  scenario : Shoalpp_sim.Faults.t;
      (** declarative fault scenario (Byzantine / partition+heal /
          crash-recover), composed on top of [crashes]/[drop_spec];
          default {!Shoalpp_sim.Faults.none} *)
  drop_spec : (int * float * float) option;
      (** (replica count, rate, from_ms): egress drops on the first k
          replicas from a given time — Fig 8's disruption *)
  round_timeout_ms : float option;
  stagger_ms : float option;  (** default: the topology's median one-way delay *)
  num_dags : int option;
  net_config : Shoalpp_sim.Netmodel.config option;
      (** [None] = {!Shoalpp_sim.Netmodel.default_config}. Use
          {!clean_net_config} for analytic experiments (T1) that need a
          noise-free network. *)
  verify_signatures : bool;
  tx_size : int;
  batch_cap : int;
  checkpoint_interval : int;
      (** certify a checkpoint (and prune below it) every this many
          committed anchors; 0 (default) disables the bounded-memory
          lifecycle. Rounded up to a multiple of the DAG count — see
          {!Shoalpp_core.Config.effective_checkpoint_interval}. *)
  seed : int;
  trace : bool;  (** record a typed event trace (see {!outcome.events}) *)
  trace_capacity : int;  (** ring size; only the newest events are retained *)
}

val default_params : params
(** n=16, 1000 tps, 30 s run / 3 s warmup, gcp10, no faults,
    signature checks on, tracing off (capacity 65536 when enabled). *)

val clean_net_config : Shoalpp_sim.Netmodel.config
(** Default network with jitter and slow epochs disabled — message-delay
    accounting becomes exact. *)

type outcome = {
  report : Shoalpp_runtime.Report.t;
  audit_ok : bool;
      (** log prefix consistency + no duplicate ordering + recovered
          replicas' logs extend their pre-crash prefixes *)
  throughput_series : (float * float) list;
  latency_series : (float * float) list;
  requeued : int;  (** orphaned-then-requeued transactions (DAG family) *)
  events_fired : int;
      (** discrete events the engine fired during the run — the
          denominator-free work measure [bench/main.exe perf] reports *)
  events : Shoalpp_sim.Trace.event list;
      (** the retained trace window, oldest first; empty unless
          {!params.trace} — export with {!Shoalpp_runtime.Export.write_jsonl} /
          {!Shoalpp_runtime.Export.write_chrome_trace} *)
}

val run : system -> params -> outcome
val median_one_way : Shoalpp_sim.Topology.t -> float
val dag_config : system -> params -> Shoalpp_core.Config.t
(** The concrete configuration a DAG-family system resolves to.
    @raise Invalid_argument for [Jolteon] / [Mysticeti]. *)
