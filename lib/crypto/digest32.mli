(** 32-byte content digests with a total order, the identity of every DAG
    node, batch, and certificate in the system.

    Invariants:
    - [equal], [compare] and [hash] are mutually consistent, and [compare]
      is the total order on the raw 32 bytes — usable as an explicit
      comparator wherever polymorphic compare is banned;
    - [of_raw]/[raw] and [hex] round-trip; digests are immutable values. *)

type t

val of_raw : string -> t
(** @raise Invalid_argument unless the input is exactly 32 bytes. *)

val of_string : string -> t
(** SHA-256 of arbitrary content. *)

val of_substring : string -> pos:int -> len:int -> t
(** SHA-256 of [len] bytes of a string from [pos], without copying them.
    @raise Invalid_argument if the range is not inside the string. *)

val concat : t list -> t
(** Digest of the concatenation of digests — used for combining parents. *)

val raw : t -> string
val hex : t -> string
val short_hex : t -> string
(** First 8 hex chars, for logs. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

val zero : t
(** The all-zero digest; placeholder for "no digest". *)
