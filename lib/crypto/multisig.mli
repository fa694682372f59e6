(** Simulated BLS multi-signatures: an aggregate over one message with a
    signer bitmap, as used for DAG node certificates (n-f vote signatures
    aggregated into one certificate).

    Aggregation combines the individual HMAC signatures by hashing them in
    signer order; verification recomputes each signer's expected signature,
    mirroring how a real BLS verifier checks the aggregate against the
    aggregated public key. The encoders put the 32-byte aggregate on the
    wire next to the signer list, and decoders rebuild the value with
    {!of_wire} from exactly those bytes, so what a receiver verifies is what
    the sender sent. Wire size is modeled as one BLS signature plus the
    bitmap, matching the paper's certificate sizes.

    Invariants:
    - an aggregate verifies iff its bitmap capacity equals the registry size
      and every signer set in the bitmap signed that exact message —
      adding, removing or swapping a signer breaks it;
    - aggregation is deterministic: signatures are combined in ascending
      signer order, so equal inputs give byte-equal aggregates;
    - modeled wire size depends only on (n, bitmap), not on signer values;
    - [of_wire] never allocates a bitmap larger than {!max_capacity}. *)

type t

val aggregate : n:int -> (Signer.public * Signer.signature) list -> t
(** [aggregate ~n sigs] over a committee of size [n].
    @raise Invalid_argument on duplicate signers or out-of-range ids. *)

val max_capacity : int
(** Largest committee a signer bitmap may be sized for (1024). A decoder
    checks a capacity read off the wire against it before allocating. *)

val combined_size : int
(** Bytes of the aggregate on the wire (32). *)

val of_wire : n:int -> signers:int list -> combined:string -> t
(** Rebuild a received aggregate: a bitmap of capacity [n] holding
    [signers], and [combined] exactly as received. Nothing is recomputed,
    so a wrong aggregate stays wrong and fails {!verify}.
    @raise Invalid_argument if [n] is negative or above {!max_capacity}
    (checked first, before any allocation), a signer is out of range or
    named twice, or [combined] is not {!combined_size} bytes. *)

val combined : t -> string
(** The aggregate bytes an encoder writes after the signer list. *)

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
