(** Due-time queue: a binary min-heap ordered by (due time, seq).

    Backs the simulator's event queue, the realtime executor's timers and
    the mempool's client arrivals — the three users all order by due time
    and break ties in scheduling order, so the queue owns both keys: the
    due time is given at {!add} and [seq] is the number of {!add} calls
    before it. Hot path: the keys sit unboxed in parallel arrays and are
    compared inline, with amortized O(log n) insert and pop.

    Invariants:
    - [pop] returns the element with the least (due time, seq): elements
      due at the same time pop in the order they were added, so the order
      is a function of the calls alone, never of addresses or hashing;
    - [seq] is strictly increasing across adds (never reset, not even by
      {!clear}), so no two elements tie on both keys;
    - size changes by exactly one per insert/pop; the heap property is
      restored before either returns. *)

type 'a t

val create : unit -> 'a t
(** Empty queue. *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val add : 'a t -> at:float -> 'a -> unit
(** Insert an element due at [at], after every element already added. *)

val min_at : 'a t -> float
(** Due time of the head; [infinity] when empty. *)

val peek : 'a t -> 'a option
(** Head element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the head element. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument if the queue is empty. *)

val clear : 'a t -> unit

val to_sorted_list : 'a t -> 'a list
(** Non-destructive; O(n log n). Intended for tests and debugging. *)
