(** LEB128 variable-length integer encoding, used by the wire codec so that
    simulated message sizes track what a production implementation would put
    on the wire.

    Invariants:
    - [write]/[read] round-trip every non-negative int, and [encoded_size]
      equals exactly the bytes [write] appends;
    - decoding stops at the terminating byte — it never reads past the
      encoded value;
    - decoding never yields a negative int: an input above [max_int] is
      refused as too large. *)

val encoded_size : int -> int
(** Bytes needed to encode a non-negative int. *)

val write : Buffer.t -> int -> unit
(** Append the LEB128 encoding of a non-negative int. *)

val put : Bytes.t -> int -> int -> int
(** [put b pos v] writes the encoding {!write} appends for [v] at [pos]
    and returns the position after it.
    @raise Invalid_argument on a negative value or a write past [b]. *)

val get : Bytes.t -> int -> int
(** The value {!put} wrote at a position, trusted: for bytes this process
    encoded, not for input (use {!read_cursor} there).
    @raise Invalid_argument on a read past [b]. *)

type cursor = { src : string; mutable pos : int }
(** A read position in a string: the state of a decoder that advances as
    it reads ({!Shoalpp_codec.Wire.Reader.t} is one). *)

val read_cursor : cursor -> int
(** Decode the value at [c.pos] and move [c.pos] past it, allocating
    nothing. The one decoder: {!read} is a wrapper.
    @raise Failure ["Varint.read: truncated input"] or
    ["Varint.read: varint too large"] (more than 63 bits, or a ninth byte
    setting bit 62); [c.pos] is then unchanged. *)

val read : string -> int -> int * int
(** [read s pos] returns [(value, next_pos)].
    @raise Failure on truncated or oversized input. *)
