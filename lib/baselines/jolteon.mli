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

    Invariants:
    - safety: a block is appended to the commit log only via the 2-chain
      rule, and the log is append-only — recovery replays a prefix, never
      rewrites one;
    - a replica votes at most once per round, and only for a block extending
      its highest known QC;
    - pending-commit retries visit tips in digest order (sorted-key
      traversal), so the commit sequence never depends on hash order. *)

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
          size on {!create}; Byzantine roles map onto Jolteon behaviours
          (equivocating leader, withheld proposal, delayed votes) and
          recovery is a warm in-memory resume (no WAL here) *)
  load_tps : float;
  tx_size : int;
  warmup_ms : float;
  round_timeout_ms : float;  (** pacemaker timeout; paper: 1500 ms *)
  gossip_interval_ms : float;  (** mempool gossip batching period *)
  max_block_txns : int;  (** paper: up to 100 batches x 500 txns *)
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
(** Shared registry: [commit.certified_direct] (2-chain commits),
    [dag.timeouts], and the ledger's latency instruments, named as for the
    DAG family ([stage.*], [latency.e2e], [dag0.*], [ledger.dag0.*]). *)

val ledger : cluster -> Shoalpp_runtime.Ledger.t
(** The cluster's one latency sink, warmup cut at [setup.warmup_ms]: every
    origin transaction is recorded once, at its 2-chain commit, under
    [Certified_direct], with the batch/inclusion stages collapsed onto
    block creation and commit equal to order (a chain protocol has no
    separate DAG-inclusion or merge step — the attribution shows both
    collapses as zero stages). The report reads its latency and
    throughput from here. *)

val report : cluster -> duration_ms:float -> Shoalpp_runtime.Report.t

val committed_consistent : cluster -> bool
(** All replicas' committed chains agree on common prefixes. *)

val timeouts_fired : cluster -> int
val rounds_reached : cluster -> int
