(** Jolteon baseline: a leader-based, 2-chain HotStuff-derivative BFT
    protocol (Gelashvili et al., FC 2022), the paper's representative of
    latency-optimal single-leader consensus.

    Implemented faithfully at the level the evaluation exercises:

    - rotating leaders propose blocks extending the highest known QC;
    - replicas vote to the next round's leader, who aggregates n-f votes
      into a QC and proposes immediately (responsiveness);
    - 2-chain commit: a QC over block [B'] at round r+1 with parent [B] at
      round r commits [B] and its uncommitted ancestors;
    - pacemaker: a 1.5 s round timeout (the paper's production setting);
      2f+1 timeout messages advance the round with the highest QC carried
      over;
    - leader reputation derived deterministically from the committed chain
      (QC signer bitmaps with a round lag), so crashed replicas are rotated
      out of the schedule — this is why Jolteon stays fast in Fig 7;
    - a shared mempool: replicas batch-gossip incoming transactions so any
      leader can propose them (clients only talk to their local replica).

    Throughput is bottlenecked by leader egress bandwidth, reproducing the
    early saturation of Fig 5.

    Jolteon models no signature checks: its messages carry signature-sized
    fields for bandwidth accounting only.

    The run itself — world, clients, faults, commit sink, audit, report —
    is the shared {!Shoalpp_runtime.Cluster}; this module contributes the
    replicas and their {!Shoalpp_runtime.Harness.hooks}. Every committed
    block reaches the harness's sink as one ordered unit (anchor = the
    block, identified by its digest) carrying only the transactions it
    executes for the first time. Recovery is a warm in-memory resume (no
    WAL), so a recovered replica's log simply continues. In the ledger, a
    transaction is recorded under [Certified_direct], with the
    batch/inclusion stages collapsed onto block creation and commit equal
    to order (a chain protocol has no separate DAG-inclusion or merge step
    — the attribution shows both collapses as zero stages). Telemetry adds
    [commit.certified_direct] (2-chain commits) and [dag.timeouts].

    Invariants:
    - safety: a block is appended to the commit log only via the 2-chain
      rule, and the log is append-only — recovery resumes it, never
      rewrites it;
    - a replica votes at most once per round, and only for a block extending
      its highest known QC;
    - pending-commit retries visit tips in digest order (sorted-key
      traversal), so the commit sequence never depends on hash order. *)

type msg
type replica

type setup = {
  committee : Shoalpp_dag.Committee.t;
  round_timeout_ms : float;  (** pacemaker timeout; paper: 1500 ms *)
  gossip_interval_ms : float;  (** mempool gossip batching period *)
  max_block_txns : int;  (** paper: up to 100 batches x 500 txns *)
}
(** Jolteon's own parameters; the run's shared fields (topology, load,
    faults, seed, trace, ...) live in {!Shoalpp_runtime.Cluster.gen_setup}. *)

val default_setup : committee:Shoalpp_dag.Committee.t -> setup

type cluster = (msg, replica) Shoalpp_runtime.Cluster.gen

val create : setup Shoalpp_runtime.Cluster.gen_setup -> cluster
(** Byzantine roles of the run's scenario map onto Jolteon behaviours
    (equivocating leader, withheld proposal, delayed votes). *)

val timeouts_fired : cluster -> int
val rounds_reached : cluster -> int
