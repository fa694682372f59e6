(** Per-replica pending-transaction queue, fed by open-loop clients.

    Clients ({!Client}) arrive; the proposer pulls up to a batch size each
    DAG round. FIFO order preserves arrival order so queuing latency is
    measured exactly as in the paper (time from arrival at the replica to
    ordering).

    Arrivals are materialized lazily: a client arms no timer, it only
    keeps the due time of its next Poisson arrival. Every operation below
    first materializes each arrival of the pool's {!group} due at or before
    the group clock's now, in due-time order, each stamped with its due
    time. A reader therefore sees exactly the queue per-arrival timers
    would have built, and a late reader (a busy loop) cannot make the
    arrivals look later than they were.

    Invariants:
    - strict FIFO: transactions are pulled in arrival order, so queuing
      latency measures exactly (pull time - due time); a transaction
      submitted at [now] (the replica's requeue) lands after every arrival
      due by [now];
    - every transaction a client contributes has [submitted_at] equal to
      its due time, and is in the queue before any operation at or after
      that time returns;
    - ids come from the group's one counter, 0, 1, 2, ... assigned in
      (due time, scheduling order) across all the group's clients: ids
      never repeat within a group;
    - catch-up is O(1) when nothing is due (one read of the group queue's
      head due time) and O(log clients) per materialized arrival;
    - a pull returns at most the requested batch size, and a bounded pool
      counts every rejected transaction;
    - every operation is atomic under the group's one mutex, so the
      multicore node's proposers (DAG-lane domains) and its requeues and
      client stops (main domain) can share a pool without a seam-crossing
      handoff. *)

type t

type group
(** Pools whose clients draw ids from one counter. They share one mutex
    and one clock, and are caught up together: an operation on any member
    materializes the due arrivals of every member. *)

val group : clock:Shoalpp_backend.Backend.Clock.t -> unit -> group
(** A new group whose ids start at 0. One group keeps ids unique across
    every replica of a run. *)

val create : ?max_pending:int -> ?group:group -> unit -> t
(** [max_pending] bounds the queue (default unbounded); beyond it,
    submissions and arrivals are rejected — back-pressure under overload.
    Without [group] the pool is a plain queue that takes no clients. *)

val submit : t -> Transaction.t -> bool
(** [false] iff rejected by the bound. *)

val pull : t -> max:int -> Transaction.t list
(** Dequeue up to [max] transactions in FIFO order. *)

val peek_pending : t -> int
val submitted : t -> int
val rejected : t -> int

val oldest_waiting : t -> float option
(** Arrival time of the transaction at the head of the queue. *)

(** {2 Arrival sources} — the mechanism behind {!Client}. *)

type source

val attach :
  t -> origin:int -> mean_gap_ms:float -> tx_size:int -> rng:Shoalpp_support.Rng.t -> source
(** A client whose first arrival is due one exponential gap after now and
    each next one a further gap after the previous due time.
    @raise Invalid_argument if the pool was created without a group. *)

val detach : source -> unit
(** Catch the group up to now, then retire the source: no arrival due
    before now is lost, none after it is created. *)

val generated : source -> int
(** Arrivals materialized so far (after catching up to now). *)
