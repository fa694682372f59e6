(** Mysticeti-style uncertified-DAG baseline (Babel et al., 2023), the
    paper's representative of low-latency uncertified designs (§3.3).

    Structure mirrored from the real system at the granularity the
    evaluation exercises:

    - one signed block per replica per round, disseminated by best-effort
      broadcast — no votes, no certificates (1 message delay per round);
    - a block can only be {e processed} (inserted into the DAG, used as a
      parent, counted for commits) once its {e entire causal history} is
      locally available — missing ancestors are fetched {e on the critical
      path}, which is precisely the robustness weakness Fig 8 demonstrates;
    - multiple anchors per round, committed by a Cordial-Miners-style rule:
      2f+1 round r+1 blocks referencing an anchor commit it directly; one-
      shot instances above resolve stragglers indirectly (the generic
      {!Shoalpp_consensus.Driver} with a 2f+1 direct threshold);
    - no leader reputation — crashed replicas stay in the anchor rotation,
      which is why Fig 7 shows Mysticeti degrading under crash faults;
    - no persistence (the public Mysticeti prototype forgoes the WAL).

    Blocks are represented with the certified-DAG node type carrying an
    empty certificate, letting the baseline reuse the DAG store and
    consensus driver; validation of the dummy certificates is skipped.

    Invariants:
    - a correct replica signs at most one block per round; injected
      equivocators send twin blocks to at most f distinct recipients;
    - commit order is a deterministic function of the delivered-block
      partial order — no clocks or randomness feed the ordering rule. *)

type msg

val message_size : msg -> int

type cluster

type setup = {
  committee : Shoalpp_dag.Committee.t;
  topology : Shoalpp_sim.Topology.t;
  net_config : Shoalpp_backend.Backend_sim.net_config;
  fault : Shoalpp_sim.Fault_schedule.t;
  scenario : Shoalpp_sim.Faults.t;
      (** declarative fault scenario, materialized against the committee
          size on {!create}; Byzantine roles map onto uncertified-DAG
          behaviours (twin blocks, withheld block, delayed block broadcast)
          and recovery is a warm in-memory resume (no WAL here) *)
  load_tps : float;
  tx_size : int;
  warmup_ms : float;
  round_timeout_ms : float;  (** paper: Mysticeti defaults to 1 s *)
  batch_cap : int;
  fetch_retry_ms : float;  (** critical-path fetch retry period *)
  verify_signatures : bool;
  seed : int;
  trace : Shoalpp_sim.Trace.t option;  (** shared typed-event trace *)
}

val default_setup : committee:Shoalpp_dag.Committee.t -> setup

val create : setup -> cluster
val run : cluster -> duration_ms:float -> unit
val crash_now : cluster -> int -> unit
val events_fired : cluster -> int
(** Simulation events fired so far (reporting). *)

val telemetry : cluster -> Shoalpp_support.Telemetry.t
(** Shared registry: driver [commit.*] rule counters, [dag.proposals],
    [dag.fetches] (critical-path fetches), [dag.timeouts], and the ledger's
    latency instruments, named as for the DAG family. *)

val ledger : cluster -> Shoalpp_runtime.Ledger.t
(** The cluster's one latency sink, warmup cut at [setup.warmup_ms]: every
    origin transaction is recorded once, at its segment commit, tagged with
    the driver's commit rule (single DAG, so all entries carry lane 0).
    The report reads its latency and throughput from here. *)

val report : cluster -> duration_ms:float -> Shoalpp_runtime.Report.t
val set_fault : cluster -> Shoalpp_sim.Fault_schedule.t -> unit

val logs_consistent : cluster -> bool
val fetches_sent : cluster -> int
val blocks_stalled : cluster -> int
(** Blocks that arrived but had to wait for missing ancestors. *)

val rounds_reached : cluster -> int
