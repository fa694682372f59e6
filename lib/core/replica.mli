(** A full Shoal++ replica: [k] staggered certified-DAG instances, each with
    its own embedded-consensus driver, their committed segments interleaved
    into one total order one anchor round at a time ({!Merge}, Alg. 3 of
    the paper).

    The same type runs Bullshark and Shoal (and their "More DAGs" variants)
    by preset — see {!Config}.

    Invariants:
    - the interleaved total order is a deterministic round-major function
      of the per-DAG committed segment sequences (Alg. 3): same segments
      in, same order out, on every replica;
    - all effects (timers, sends, persistence waits) go through the injected
      {!Shoalpp_backend.Backend} — the replica itself never touches the OS;
    - re-delivering an envelope already processed is harmless (duplicate
      votes/certificates are dropped, not double-counted);
    - the checkpoint lifecycle (with [checkpoint_interval > 0]) is owned by
      {!Ck_manager}, whose invariants say why it leaves the commit sequence
      byte-identical and prunes only under a verified certificate; its
      votes travel the control plane (dag id {!control_dag_id}). *)

type envelope = { dag_id : int; payload : Shoalpp_dag.Types.message }
(** What travels on the wire: one DAG instance's message, tagged. *)

val control_dag_id : int
(** 255 — the pseudo dag id of control-plane envelopes (checkpoint votes).
    Routed by the replica itself, never handed to a DAG instance; the
    multicore node must route it to the merge domain. *)

val envelope_size : envelope -> int

type ordered = {
  global_seq : int;  (** position of this segment in the interleaved log *)
  segment : Shoalpp_consensus.Driver.segment;
  ordered_at : float;  (** when the segment entered the global log *)
}

type lane_env = {
  le_backend : int -> envelope Shoalpp_backend.Backend.t;
      (** [dag_id -> backend] whose timers fire on that lane's domain; its
          transport must be safe to call from there (the node posts sends
          to the transport's owning domain) *)
  le_obs : int -> Shoalpp_sim.Obs.t;
      (** [dag_id -> obs] sinks owned by that lane's domain (merged into
          the main registry at report time) *)
  le_post_main : (unit -> unit) -> unit;
      (** run a closure on the merge domain, FIFO per poster *)
}
(** Multicore placement for the realtime node's [--domains] mode: one DAG
    lane per executor domain. The commit interleave stays on the merge
    domain — lanes hand segments over via [le_post_main], and the
    merge consumes them by anchor round and lane, so the global
    order is the same deterministic function of the per-lane segment
    sequences as in single-domain mode. Without a [lane_env] nothing
    changes: all closures collapse to the single-domain behaviour. *)

type t

val create :
  config:Config.t ->
  replica_id:int ->
  backend:envelope Shoalpp_backend.Backend.t ->
  mempool:Shoalpp_workload.Mempool.t ->
  ?on_ordered:(ordered -> unit) ->
  ?on_caught_up:(unit -> unit) ->
  ?trace:Shoalpp_sim.Trace.t ->
  ?telemetry:Shoalpp_support.Telemetry.t ->
  ?byzantine:(float -> Shoalpp_sim.Faults.byz_kind option) ->
  ?retain_wal:bool ->
  ?lane_env:lane_env ->
  unit ->
  t
(** Registers itself as the [backend] transport's handler for [replica_id].
    All clock reads, timers, and sends go through [backend], so the same
    replica runs under the deterministic simulator
    ({!Shoalpp_backend.Backend_sim}) or on a wall clock
    ({!Shoalpp_backend.Backend_realtime}). [on_ordered] fires for every
    segment appended to the replica's global log, in order.

    [byzantine] (default: honest) is queried with the current time at every
    send and injects misbehaviour at the network boundary: equivocating own
    proposals, withholding them, or delaying votes — each counted under
    [fault.*] telemetry and traced. [retain_wal] keeps synced WAL payloads
    in memory so {!recover} can replay them.

    [trace]/[telemetry] (usually shared across the cluster) receive the typed
    event stream and the metric registry; counters aggregate across
    replicas. The replica records no latency: its owner does, from
    [on_ordered], through the runtime's latency ledger.

    When [config]'s [checkpoint_interval] is positive the replica runs the
    bounded-memory lifecycle through a {!Ck_manager}: it folds the commit
    stream into a digest, at the end of every R-th merged anchor round
    (R = effective interval / k) votes on the resulting checkpoint
    candidate over the control plane, and on a quorum of matching votes
    certifies it, persists it to a dedicated always-retaining WAL device,
    and once that is durable truncates each lane's protocol WAL entries
    below the lane's seam round in it. [on_caught_up] fires each time a
    {!recover} finishes — synchronously when recovery is purely local,
    or once peer catch-up sync completes on every lane.

    With [lane_env] (multicore node) the replica does {e not} register a
    transport handler — the harness routes inbound messages through the
    verify pool to {!deliver} on the right lane's domain — and each lane
    gets its own WAL (sync timers must fire on the lane's executor).
    [crash]/[recover] are not supported while lane domains are running. *)

val deliver : t -> dag_id:int -> src:int -> Shoalpp_dag.Types.message -> unit
(** Hand one inbound envelope to the replica's dispatch (dropped when
    crashed or the [dag_id] is neither a lane nor {!control_dag_id}):
    checkpoint votes and sync traffic are consumed by the replica itself,
    everything else goes to the lane's DAG instance. Must be called on the
    domain that owns the target: the replica's own domain by default;
    under a [lane_env], lane traffic on the lane's executor and
    [control_dag_id] traffic on the merge domain — the multicore node
    posts exactly so. *)

val start : t -> unit
(** Start every DAG lane now, each on its own executor. From round 1 on
    a phase gate keeps the lanes in the paper's stagger: lane j >= 1 enters round r no earlier than
    3/4 P/k after lane j-1 entered r, and lane 0 enters r no earlier
    than 3/4 P/k after lane k-1 entered r-1, P the largest of the
    lanes' round periods (each an EWMA, weight 1/8, of the lane's
    interval between round entries per round; a lane uses no more than
    its own latest round). No lane is held more than P past the moment
    it became ready; in phase lane 0 is never held, and at k = 1
    nothing is. The gate decides only timing. Each replica reports
    [lane.round_offset] (max minus min of its lanes' rounds, sampled at
    each lane-0 entry), [lane.gate_held_ms] (one sample per held
    proposal; the sum is the total hold) and [lane.period_ms] (a lane's
    period at each of its round entries), all histograms, when k > 1. *)

val crash : t -> unit
(** Stop all lanes and drop the network handler's deliveries. Idempotent;
    counted under [fault.crashes] and traced. *)

val recover : ?wipe:bool -> t -> unit
(** Restart a crashed replica: rebuild all DAG lanes, rewind to the newest
    locally durable certified checkpoint (when checkpointing is on), and
    replay the retained WAL entries through the fresh instances (requires
    [retain_wal]). Replay rebuilds the stores, the vote-once table and the
    committed suffix without sending a byte. With checkpointing on and
    peers present, one catch-up loop ({!Shoalpp_sync.Sync.Client}) first
    asks peers for a newer certified checkpoint (verified before trust),
    then replays and pulls the history it missed — O(gap) messages per
    lane — and the replica resumes proposing on every lane at once when
    the last lane's catch-up completes; {!catching_up} is true until
    then. [wipe]
    (default false) simulates total disk loss: both WAL devices are
    cleared, so the frontier comes from a peer's checkpoint, or from a
    full-history sync when no peer has one. No-op if not crashed. *)

val base_seq : t -> int
(** First global sequence number of the post-recovery log: 0 normally, or
    [checkpoint seq + 1] after a checkpoint-anchored recovery. Auditors
    comparing pre-crash and post-recovery logs must offset by this. *)

val catching_up : t -> bool
(** True from {!recover} until the catch-up loop has finished every lane. *)

val latest_checkpoint : t -> Shoalpp_storage.Checkpoint.t option
(** Newest certified checkpoint this replica holds, if any. *)

val sync_stats : t -> int * int
(** [(requests_sent, certs_ingested)] of the catch-up loop since the last
    {!recover}; requests include [Get_checkpoint] and retries. *)

val sync_requests_served : t -> int
(** Peer catch-up requests this replica answered, summed over lanes. *)

val replica_id : t -> int
val config : t -> Config.t

val log_length : t -> int
(** Segments appended to the global log so far. *)

val txns_ordered : t -> int

val driver_stats : t -> Shoalpp_consensus.Driver.stats list
(** Per-DAG commit-rule statistics. *)

val store : t -> dag_id:int -> Shoalpp_dag.Store.t
(** The local DAG store of one lane (introspection for tests/tools). *)

val driver : t -> dag_id:int -> Shoalpp_consensus.Driver.t

val instance_stats : t -> (int * int * int * int) list
(** Per-DAG (proposals, votes, certs formed, fetches). *)

val invalid_dropped : t -> int
(** Messages the lanes refused as invalid, summed over lanes. *)

val current_rounds : t -> int list
(** Per-DAG highest proposed round. *)

val wal : t -> Shoalpp_storage.Wal.t

val requeued : t -> int
(** Transactions returned to the mempool because their proposal was orphaned
    (garbage-collected unordered). *)

val pending_segments : t -> int
(** Committed-but-not-yet-interleaved segments across DAGs (Alg. 3's
    waiting excess). *)
