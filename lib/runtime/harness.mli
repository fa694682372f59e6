(** The run harness core shared by {!Cluster} (simulated executor) and
    {!Node} (wall-clock executor): per-replica mempools and clients, the
    commit sink every replica's [on_ordered] feeds, crash/recover
    bookkeeping, the safety audit and the run report.

    The executors differ only in how they build the backend and the
    replicas ([make_replica]); everything that judges a run lives here,
    once, so a simulated and a realtime run are checked by the same code.

    The audit is the paper's correctness argument as a check, run in
    global-sequence coordinates (a checkpoint-recovered replica's log
    starts at its base sequence, not 0):
    - every pair of replicas' ordered logs agree on their overlapping
      sequence range;
    - no replica orders the same transaction twice outside WAL replay /
      catch-up, which re-order history by design;
    - a recovered replica's rebuilt log extends its pre-crash log above the
      restored checkpoint.

    Invariants:
    - every ordered segment goes through one sink: the log append, the
      per-replica transaction dedup and, for each transaction at its
      origin, {!Ledger.record} — the only latency recording — happen in
      that order, and the record is muted while the replica is recovering;
    - the sink only records, so a run's commit stream is independent of
      whether logs are tracked;
    - {!audit_logs} is a pure function of its arguments, and segment
      identities compare with {!equal_seg}, never polymorphic equality. *)

type seg_id = { sdag : int; sround : int; sauthor : int }
(** Anchor identity of one ordered segment: DAG lane, round, author. *)

val equal_seg : seg_id -> seg_id -> bool

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

val prefixes_agree : equal:('a -> 'a -> bool) -> ?bases:int array -> 'a array array -> bool
(** Whether every pair of logs agrees on its overlapping range, where
    [logs.(i).(0)] sits at position [bases.(i)] (default 0). Also the
    baseline protocols' log check. *)

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

type t

val create :
  backend:Shoalpp_core.Replica.envelope Shoalpp_backend.Backend.t ->
  n:int ->
  num_dags:int ->
  load_tps:float ->
  tx_size:int ->
  seed:int ->
  warmup_ms:float ->
  track_logs:bool ->
  telemetry:Shoalpp_support.Telemetry.t ->
  ?client_group:(int -> Shoalpp_workload.Mempool.group) ->
  make_replica:
    (int ->
    mempool:Shoalpp_workload.Mempool.t ->
    on_ordered:(Shoalpp_core.Replica.ordered -> unit) ->
    on_caught_up:(unit -> unit) ->
    Shoalpp_core.Replica.t) ->
  unit ->
  t
(** Build the per-replica state, then each replica via [make_replica i],
    which must wire the given mempool and callbacks into it. [load_tps] is
    split evenly over the [n] clients; [track_logs = false] skips the logs
    and the dedup (the audit then sees empty logs). [client_group i] is
    the arrival group of replica [i]'s mempool (its clock and id counter);
    by default every mempool joins one group on [backend]'s clock, so all
    clients share one counter with stride 1. A ledger
    is registered on [telemetry], with [warmup_ms] as its warmup cut and
    one [dag<k>.*] pair per lane. *)

val backend : t -> Shoalpp_core.Replica.envelope Shoalpp_backend.Backend.t
val replicas : t -> Shoalpp_core.Replica.t array
val telemetry : t -> Shoalpp_support.Telemetry.t
val ledger : t -> Ledger.t

val recovering : t -> int -> bool
(** True from {!recover} until the replica reports it has caught up. *)

val start_client : t -> int -> unit
(** Start replica [i]'s open-loop client (nothing at zero load). *)

val stop_clients : t -> unit

val crash : t -> int -> unit
(** Crash replica [i] and stop its client. *)

val recover : ?wipe:bool -> t -> int -> unit
(** Snapshot replica [i]'s log for the recovery-prefix check, reset its log
    and dedup, mute its ledger records until catch-up, then run
    {!Shoalpp_core.Replica.recover} and restart its client. *)

val ordered_ids : t -> replica:int -> (int * int * int) list
(** Replica [replica]'s ordered log as [(dag, round, author)], oldest
    first. *)

val audit : t -> audit

val report :
  t ->
  name:string ->
  duration_ms:float ->
  telemetry:Shoalpp_support.Telemetry.snapshot ->
  trace_dropped:int ->
  Report.t
