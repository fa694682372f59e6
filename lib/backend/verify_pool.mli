(** Pool for CPU-bound verification with per-lane in-order completion.

    The multicore node verifies inbound message signatures off the hot
    path: each message becomes a job [(lane, work, k)] where [work] is the
    verification closure and [k] receives its verdict. Worker domains pull
    jobs from one FIFO queue under the pool's mutex, so a burst on one
    lane spreads across every core.

    The contract that keeps consensus deterministic: {b completions are
    delivered per lane in submission order}, regardless of which worker
    finishes first. A job finished out of turn parks in the lane's reorder
    table until its predecessors have been delivered. Lanes are
    independent — a slow job on one lane never delays another lane.

    With [workers = 0] the pool degenerates to synchronous inline
    execution ([submit] runs [work] then [k] before returning) — the
    single-domain mode, and the reference behaviour the golden
    determinism test compares against.

    Invariants:
    - for a fixed lane, [k]s are invoked in exactly the order the jobs
      were submitted;
    - every submitted job's [k] is invoked exactly once, even when [work]
      raises (the verdict is then [false]) — exceptions are counted, never
      propagated to a caller or a worker loop;
    - shutdown draws a deterministic line: every job whose {!submit}
      returned before {!shutdown} began is drained and delivered in lane
      order; a {!submit} racing with or following {!shutdown} raises
      [Invalid_argument] (in both pooled and inline modes) — a job is
      never silently dropped and never executed out of lane order on the
      submitting thread;
    - after {!shutdown} returns, every accepted job has been executed and
      delivered (the queue is drained, not discarded), and no worker
      domain is running.

    Sinks ([k]) run on a worker domain (or the submitter when inline);
    they are expected to be cheap and thread-safe — in the node they just
    {!Backend_realtime.post} the verified message to its lane executor. *)

type t

val create : workers:int -> lanes:int -> t
(** Spawn [workers] domains serving [lanes] independent ordered lanes.
    [workers = 0] means inline synchronous execution. *)

val submit : t -> lane:int -> work:(unit -> bool) -> k:(bool -> unit) -> unit
(** Enqueue a job. Thread-safe, callable from any domain. With zero
    workers the job runs inline before [submit] returns.
    @raise Invalid_argument once {!shutdown} has begun (pooled and inline
    modes alike) — check {!closed} first when a late message may race the
    quiesce. *)

val shutdown : t -> unit
(** Drain every queue, deliver every parked completion, and join the
    worker domains. Idempotent; subsequent {!submit}s raise. *)

val closed : t -> bool
(** True once {!shutdown} has begun; {!submit} raises from then on. *)

val workers : t -> int
(** Live worker domains (0 after {!shutdown} or for an inline pool). *)

val executed : t -> int
(** Jobs whose [work] has run (including inline and raised ones). *)

val work_exceptions : t -> int
(** Jobs whose [work] raised (delivered with verdict [false]). *)

val sink_exceptions : t -> int
(** Completions whose [k] raised (swallowed and counted). *)

val inflight : t -> int
(** Jobs submitted but not yet executed. *)
