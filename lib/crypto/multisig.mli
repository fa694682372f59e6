(** Simulated BLS multi-signatures: an aggregate over one message with a
    signer bitmap, as used for DAG node certificates (n-f vote signatures
    aggregated into one certificate).

    Aggregation combines the individual HMAC signatures by hashing them in
    signer order; verification recomputes each signer's expected signature,
    mirroring how a real BLS verifier checks the aggregate against the
    aggregated public key. Wire size is modeled as one BLS signature plus the
    bitmap, matching the paper's certificate sizes.

    Invariants:
    - an aggregate verifies iff its bitmap capacity equals the registry size
      and every signer set in the bitmap signed that exact message —
      adding, removing or swapping a signer breaks it;
    - aggregation is deterministic: signatures are combined in ascending
      signer order, so equal inputs give byte-equal aggregates;
    - modeled wire size depends only on (n, bitmap), not on signer values. *)

type t

val aggregate : n:int -> (Signer.public * Signer.signature) list -> t
(** [aggregate ~n sigs] over a committee of size [n].
    @raise Invalid_argument on duplicate signers or out-of-range ids. *)

val signers : t -> Shoalpp_support.Bitset.t
val num_signers : t -> int

val capacity : t -> int
(** Committee size the signer bitmap was built for. *)

val verify : Signer.registry -> t -> string -> bool
(** All contained signatures must verify over the message, and the bitmap
    must be sized for exactly the registry's committee. [false], never an
    exception, otherwise. *)

val wire_size : t -> int
(** Modeled bytes: 48-byte aggregate + ceil(n/8) bitmap. *)

val pp : Format.formatter -> t -> unit
