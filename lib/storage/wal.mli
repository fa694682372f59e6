(** Simulated write-ahead log, retained per DAG lane and round.

    Stands in for the RocksDB consensus store of the paper's prototype: what
    matters to consensus latency is that certificate persistence costs a
    bounded sync delay before a vote/commit may be externalized. Writes to a
    busy device queue behind each other; concurrent appends issued while a
    sync is in flight coalesce into the next sync (group commit), which is
    how production WALs keep persistence off the throughput critical path.

    Every retained entry carries the [(lane, round)] of the record it holds
    (a proposal or a certificate). Retention is garbage-collected by round,
    as Narwhal/Bullshark do: {!truncate_below} drops one lane's entries
    below a round — the seam round of the newest durable certified
    checkpoint — so replay after a crash starts at the checkpoint instead
    of genesis, whatever the lanes' phase. Each lane keeps its entries in
    per-round buckets, so a truncation drops whole rounds from the lane's
    low end: it walks only the rounds it drops and copies nothing it
    keeps. Truncation schedules no timers and never touches the device
    queue, so enabling it cannot perturb the sync timing of protocol
    records.

    Sync completion is driven by a {!Shoalpp_backend.Backend.Timers}
    handle, so the same log runs under the simulator or the wall-clock
    executor.

    Invariants:
    - a record is reported durable (its sync callback fires) only after the
      modeled device delay has elapsed; callbacks fire in append order;
    - group commit coalesces syncs but never reorders or drops records —
      replay after a crash returns exactly the durable retained entries,
      in append order;
    - [truncate_below ~lane ~round] drops exactly the durable entries of
      [lane] with a round below [round]: other lanes, and an append still
      in flight (it becomes durable afterwards), are untouched;
    - all timing flows through the injected backend timers (no wall clock). *)

type t

type entry = { lane : int; round : int; payload : unit -> string }
(** A record retained for replay: the DAG lane and round it belongs to, and
    a thunk producing its bytes — called only by {!entries}, so a record
    that is never replayed is never encoded. It must return the same bytes
    whenever it is called. *)

val create :
  timers:Shoalpp_backend.Backend.Timers.t ->
  sync_latency_ms:float ->
  ?retain:bool ->
  unit ->
  t
(** [sync_latency_ms] = 0 models the in-memory configuration (the paper's
    Mysticeti baseline forgoes persistence). Every sync is a group commit:
    it covers everything queued when it starts. [retain] (default false)
    keeps synced entries in memory so a recovering replica can replay them
    ({!entries}); crash-recovery scenarios enable it. *)

val append : t -> ?entry:entry -> (unit -> unit) -> unit
(** Schedule a durable write; the callback fires when the
    write has synced. With zero latency the callback fires on the next
    engine step (never synchronously, so callers can rely on async order).
    [entry] is retained for replay only if the log was created with
    [retain] — and only once its sync completes, so appends in flight at a
    crash are lost, exactly as on a real device. *)

val truncate_below : t -> lane:int -> round:int -> int
(** Drop the retained entries of [lane] with a round below [round]; returns
    the number dropped. Callers pass the seam round of a certified
    checkpoint whose blob is durable, so no replay can need what is
    dropped. *)

val clear : t -> unit
(** Simulated total disk loss (recovery-from-peers tests): every retained
    entry is dropped. In-flight appends still complete and are retained. *)

val entries : t -> (int * string) list
(** Synced retained entries as [(lane, bytes)], oldest first (empty unless
    [retain]); each payload thunk is called here. *)

val segments : t -> (int * int) list
(** Retained [(lane, entry count)] pairs, by lane; lanes with no retained
    entry are absent. *)

val retains : t -> bool
(** Whether this log retains payloads (callers skip encoding otherwise). *)

val appends : t -> int
val syncs : t -> int
(** Number of device sync operations; < [appends] when group commit
    coalesces. *)
