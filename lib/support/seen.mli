(** A growable set of non-negative ids, one bit each.

    Holds the transaction ids a replica has ordered: the run audit's
    duplicate check and a replica's own-origin filter for requeues. Ids
    are dense (client counters), so a bit per id up to the largest one
    marked is far smaller than a hash entry per id.

    Invariants:
    - [mem t id] is true iff [mark t id] was called since the last
      [reset] (or [create]);
    - memory is one byte block covering ids up to the largest marked below
      2^27, grown by doubling and never past 16 MiB; only ids at or above
      2^27 (no client counter reaches them) take an entry each, in a side
      table that [reset] empties. *)

type t

val create : unit -> t

val mark : t -> int -> bool
(** Add an id; [true] iff it was already present.
    @raise Invalid_argument on a negative id. *)

val mem : t -> int -> bool
(** Membership; [false] for any id never marked, negative ones included. *)

val reset : t -> unit
(** Empty the set. *)
