(** Hash table over int keys with an identity hash.

    For tables touched on the per-message path and keyed by a round or a
    packed (round, author) position: a lookup is one mask and one bucket
    walk, with no call into the polymorphic hash.

    Invariants:
    - a key's bucket depends only on the key and the table size, never on
      addresses or a random seed;
    - [iter]/[fold]/[to_seq] still visit bindings in bucket order, which is
      not key order: the [sorted-iteration] rule of `tools/lint` treats them
      like [Hashtbl]'s, so modules that feed emitted bytes must sort what
      they collect, or walk the keys they know (rounds, positions) in
      order. *)

include Hashtbl.S with type key = int
