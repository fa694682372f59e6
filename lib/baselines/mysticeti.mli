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

    The run itself — world, clients, faults, commit sink, audit, report —
    is the shared {!Shoalpp_runtime.Cluster}; this module contributes the
    replicas and their {!Shoalpp_runtime.Harness.hooks}. Each committed
    segment reaches the harness's sink tagged with the driver's commit rule
    (single DAG, so lane 0). Recovery is a warm in-memory resume (no WAL),
    so a recovered replica's log simply continues. Telemetry adds the
    driver's [commit.*] rule counters, [dag.proposals], [dag.fetches]
    (critical-path fetches) and [dag.timeouts].

    Invariants:
    - a correct replica signs at most one block per round; injected
      equivocators send twin blocks to at most f distinct recipients;
    - commit order is a deterministic function of the delivered-block
      partial order — no clocks or randomness feed the ordering rule. *)

type msg
type replica

type setup = {
  committee : Shoalpp_dag.Committee.t;
  round_timeout_ms : float;  (** paper: Mysticeti defaults to 1 s *)
  batch_cap : int;
  fetch_retry_ms : float;  (** critical-path fetch retry period *)
  verify_signatures : bool;
}
(** Mysticeti's own parameters; the run's shared fields (topology, load,
    faults, seed, trace, ...) live in {!Shoalpp_runtime.Cluster.gen_setup}. *)

val default_setup : committee:Shoalpp_dag.Committee.t -> setup

type cluster = (msg, replica) Shoalpp_runtime.Cluster.gen

val create : setup Shoalpp_runtime.Cluster.gen_setup -> cluster
(** Byzantine roles of the run's scenario map onto uncertified-DAG
    behaviours (twin blocks, withheld block, delayed block broadcast). *)

val fetches_sent : cluster -> int
val blocks_stalled : cluster -> int
(** Blocks that arrived but had to wait for missing ancestors. *)

val rounds_reached : cluster -> int
