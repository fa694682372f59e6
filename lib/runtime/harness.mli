(** The run harness core shared by {!Cluster} (simulated executor) and
    {!Node} (wall-clock executor), for every protocol — Shoal++ and its DAG
    variants, Jolteon and Mysticeti: per-replica mempools and clients, the
    commit sink every replica's ordered output feeds, crash/recover
    bookkeeping, the safety audit and the run report.

    The harness is generic over the protocol's message type ['msg] and
    replica type ['r]. A protocol contributes only its replicas (built by
    [make_replica]) and a few {!hooks}; everything that judges a run lives
    here, once, so every system and both executors are checked by the same
    code.

    The audit is the paper's correctness argument as a check, run in
    global-sequence coordinates (a checkpoint-recovered replica's log
    starts at its base sequence, not 0):
    - every pair of replicas' ordered logs agree on their overlapping
      sequence range, anchor digests included;
    - no replica orders the same transaction twice outside WAL replay /
      catch-up, which re-order history by design;
    - a recovered replica's rebuilt log extends its pre-crash log above the
      restored checkpoint.

    Invariants:
    - every ordered unit (a Shoal++ segment, a Mysticeti segment, a Jolteon
      block) goes through one sink: the log append, the per-replica
      transaction dedup and, for each transaction at its origin,
      {!Ledger.record} — the only latency recording — happen in that order,
      and the record is muted while the replica is recovering;
    - the sink only records, so a run's commit stream is independent of
      whether logs are tracked;
    - {!audit_logs} is a pure function of its arguments, and segment
      identities compare with {!equal_seg}, never polymorphic equality. *)

type seg_id = { sdag : int; sround : int; sauthor : int; sdigest : Shoalpp_crypto.Digest32.t }
(** Anchor identity of one ordered unit: DAG lane, round, author and the
    anchor's digest (a Jolteon block's own digest). *)

val equal_seg : seg_id -> seg_id -> bool

type batch = {
  batched_at : float;  (** ms: batch sealed *)
  included_at : float;  (** ms: proposal (DAG node or block) created *)
  txns : Shoalpp_workload.Transaction.t list;
}

type commit = {
  anchor : seg_id;
  rule : Shoalpp_consensus.Anchors.rule;
  seq : int;  (** global sequence number of this unit *)
  committed_at : float;
  ordered_at : float;
  batches : batch list;  (** in order *)
}
(** One ordered unit as a protocol hands it to the sink. *)

val commit_of_segment :
  Shoalpp_consensus.Driver.segment -> seq:int -> ordered_at:float -> commit
(** A DAG segment (Shoal++ or Mysticeti) as a commit: its anchor and rule,
    one batch per DAG node. *)

val commit_of_ordered : Shoalpp_core.Replica.ordered -> commit
(** A Shoal++ replica's ordered segment, at its global sequence. *)

type commit_counts = { fast : int; direct : int; indirect : int; skipped : int }

val driver_counts : Shoalpp_consensus.Driver.stats list -> commit_counts
(** Commit-rule counts summed over consensus drivers (one per DAG lane). *)

type 'r hooks = {
  start : 'r -> unit;
  crash : 'r -> unit;
  recover : 'r -> wipe:bool -> unit;
  replays_log : bool;
      (** true: recovery rebuilds the ordered log from storage (WAL
          replay), so the harness restarts the replica's log and dedup and
          mutes its ledger until it reports caught up. false: a warm
          in-memory resume, whose log simply continues *)
  base_seq : 'r -> int;  (** global sequence of the replica log's first entry *)
  commit_counts : 'r -> commit_counts;
}

val replica_hooks : Shoalpp_core.Replica.t hooks
(** The Shoal++ replica's hooks (WAL replay on recovery). *)

type audit = {
  consistent_prefixes : bool;
  prefix_length : int;
      (** the shortest replica log's end, in global sequence numbers *)
  total_segments : int;
      (** the longest replica log's end, in global sequence numbers: the
          length of the global order the audit saw *)
  duplicate_orders : int;  (** txns ordered twice by the same replica *)
  recovery_prefix_ok : bool;
      (** every recovered replica's rebuilt log extends its pre-crash log
          (vacuously true when nothing recovered) *)
  anchors_per_lane : int array;
      (** segments replica 0 ordered per DAG lane — every lane of a healthy
          run shows at least one *)
}

val ok : audit -> bool
(** The single verdict: consistent prefixes, no duplicate orders and every
    recovered log extending its pre-crash log. *)

val audit_logs :
  num_dags:int ->
  logs:seg_id array array ->
  bases:int array ->
  pre_recovery:(int * seg_id array) option array ->
  duplicate_orders:int ->
  audit
(** The audit over explicit state: [logs.(i)] is replica [i]'s ordered log,
    oldest first, whose first entry has global sequence [bases.(i)];
    [pre_recovery.(i)] is [Some (base, log)] — replica [i]'s log as it stood
    at its last recovery — for recovered replicas. *)

type ('msg, 'r) t

val create :
  backend:'msg Shoalpp_backend.Backend.t ->
  n:int ->
  num_dags:int ->
  load_tps:float ->
  tx_size:int ->
  seed:int ->
  warmup_ms:float ->
  track_logs:bool ->
  telemetry:Shoalpp_support.Telemetry.t ->
  ?client_group:(int -> Shoalpp_workload.Mempool.group) ->
  hooks:'r hooks ->
  make_replica:
    (int ->
    mempool:Shoalpp_workload.Mempool.t ->
    on_commit:(commit -> unit) ->
    on_caught_up:(unit -> unit) ->
    'r) ->
  unit ->
  ('msg, 'r) t
(** Build the per-replica state, then each replica via [make_replica i],
    which must wire the given mempool and callbacks into it. [load_tps] is
    split evenly over the [n] clients; [track_logs = false] skips the logs
    and the dedup (the audit then sees empty logs). [client_group i] is
    the arrival group of replica [i]'s mempool (its clock and id counter);
    by default every mempool joins one group on [backend]'s clock, so all
    clients share one counter with stride 1. A ledger
    is registered on [telemetry], with [warmup_ms] as its warmup cut and
    one [dag<k>.*] pair per lane. *)

val backend : ('msg, 'r) t -> 'msg Shoalpp_backend.Backend.t
val replicas : ('msg, 'r) t -> 'r array
val hooks : ('msg, 'r) t -> 'r hooks
val telemetry : ('msg, 'r) t -> Shoalpp_support.Telemetry.t
val ledger : ('msg, 'r) t -> Ledger.t

val recovering : ('msg, 'r) t -> int -> bool
(** True from {!recover} until the replica reports it has caught up. *)

val start_client : ('msg, 'r) t -> int -> unit
(** Start replica [i]'s open-loop client (nothing at zero load). *)

val stop_clients : ('msg, 'r) t -> unit

val crash : ('msg, 'r) t -> int -> unit
(** Crash replica [i] and stop its client. *)

val recover : ?wipe:bool -> ('msg, 'r) t -> int -> unit
(** Snapshot replica [i]'s log for the recovery-prefix check; if its
    recovery replays the log, reset the log and dedup and mute its ledger
    records until catch-up. Then run the recover hook and restart its
    client. *)

val ordered_ids : ('msg, 'r) t -> replica:int -> (int * int * int) list
(** Replica [replica]'s ordered log as [(dag, round, author)], oldest
    first. *)

val audit : ('msg, 'r) t -> audit

val report :
  ('msg, 'r) t ->
  name:string ->
  duration_ms:float ->
  telemetry:Shoalpp_support.Telemetry.snapshot ->
  trace_dropped:int ->
  Report.t
