(** Transaction batches — the payload of a DAG node proposal (one batch per
    proposal, inline data streaming per §7 of the paper).

    A batch is one packed byte string, as Narwhal stores a batch: no replica
    needs its transactions one by one until it orders them. The string is
    the digest preimage — a varint count, then each transaction's
    [(id, size, origin)] as three varints — followed by each transaction's
    [submitted_at] as 8 big-endian bytes of IEEE 754 bits, in batch order.
    A proposal carries it length-prefixed: encoding is one blit, decoding
    one structural scan, one slice and one SHA-256.

    Invariants:
    - the digest is SHA-256 of the preimage, so it commits to the
      transaction ids, sizes and origins in batch order: equal digests
      imply identical payload content and order, and the stamps are not
      signed;
    - [make] never reorders or drops transactions, and [txns] returns
      exactly the transactions [make] was given (stamps bit for bit);
    - [count], [wire_size] and [sole_origin] are computed once, from the
      packed string they describe;
    - {!read} refuses every input that is not one packed string whose
      count agrees with its triples and its stamps, and allocates only the
      slice, a cursor, the digest and the record, whatever the count. *)

type t = private {
  packed : string;  (** preimage, then one 8-byte stamp per transaction *)
  count : int;
  wire_size : int;  (** modeled bytes inside a proposal: see {!wire_size} *)
  sole_origin : int;  (** the origin every transaction shares; -1 when mixed or empty *)
  digest : Shoalpp_crypto.Digest32.t;
  created_at : float;
}

val make : txns:Transaction.t list -> created_at:float -> t
(** Pack [txns] into one exactly-sized string. *)

val empty : created_at:float -> t
val is_empty : t -> bool
val length : t -> int

val wire_size : t -> int
(** Total bytes the batch occupies inside a proposal, as the network model
    charges them: a 4-byte header plus each transaction's
    {!Transaction.wire_size}. *)

val iter : t -> (int -> id:int -> size:int -> origin:int -> unit) -> unit
(** [iter t f] calls [f i ~id ~size ~origin] for the [i]-th transaction,
    in batch order, reading the packed string and allocating nothing per
    transaction. *)

val submitted_at : t -> int -> float
(** The [i]-th transaction's stamp.
    @raise Invalid_argument unless [0 <= i < length t]. *)

val txns : t -> Transaction.t list
(** The transactions as records, in batch order. *)

val write : Shoalpp_codec.Wire.Writer.t -> t -> unit
(** The packed string, length-prefixed. *)

val read : Shoalpp_codec.Wire.Reader.t -> created_at:float -> t
(** Inverse of {!write}.
    @raise Shoalpp_codec.Wire.Reader.Malformed on truncated input, a
    malformed varint, or a count that disagrees with the string's
    length. *)

val pp : Format.formatter -> t -> unit
