(** Binary wire format: length-prefixed, varint-based writer/reader pair.

    Protocol message modules build their encoders on these primitives. The
    simulator charges bandwidth for [Writer.size]-many bytes, so encodings
    deliberately mirror a realistic production format (varints, raw digests,
    compact bitmaps) rather than OCaml marshaling.

    Invariants:
    - [Writer]/[Reader] are exact inverses: reading back a written message
      consumes precisely [Writer.size] bytes and reconstructs equal values;
    - encoding is deterministic: field order is fixed by the encoder, never
      derived from hash-table iteration;
    - the reader fails with [Error]/exception on truncated or corrupt input
      instead of reading out of bounds. *)

module Writer : sig
  type t

  val create : ?initial:int -> unit -> t
  val uint : t -> int -> unit
  (** LEB128 varint; value must be non-negative. *)

  val u8 : t -> int -> unit
  val u32 : t -> int -> unit
  (** Fixed 4-byte big-endian. *)

  val u64 : t -> int64 -> unit
  val float : t -> float -> unit
  (** IEEE 754 bits as u64. *)

  val bytes : t -> string -> unit
  (** Length-prefixed byte string. *)

  val raw : t -> string -> unit
  (** Raw bytes with no prefix (for fixed-size fields like digests). *)

  val raw_sub : t -> Bytes.t -> pos:int -> len:int -> unit
  (** [len] raw bytes of a buffer from [pos], with no prefix: appends
      pre-encoded fields kept in a mutable buffer without copying them out
      first. *)

  val digest : t -> Shoalpp_crypto.Digest32.t -> unit
  val list : t -> ('a -> unit) -> 'a list -> unit
  (** Count-prefixed sequence; the callback writes each element. *)

  val size : t -> int
  val contents : t -> string

  val clear : t -> unit
  (** Empty the writer, keeping its storage for the next message. *)

  val blit : t -> Bytes.t -> int -> unit
  (** [blit w dst pos] copies the [size w] written bytes into [dst] at
      [pos], without an intermediate string. *)
end

module Reader : sig
  type t

  exception Malformed of string
  (** Raised by all reads on truncated or invalid input; protocol code treats
      it as a Byzantine message and drops it. *)

  val of_string : ?pos:int -> string -> t
  (** A reader over [s] from offset [pos] (default 0) to its end; the
      string is not copied.
      @raise Invalid_argument if [pos] is outside [0, length s]. *)

  val uint : t -> int
  val u8 : t -> int
  val u32 : t -> int
  val u64 : t -> int64
  val float : t -> float
  val bytes : t -> string
  val raw : t -> int -> string
  val digest : t -> Shoalpp_crypto.Digest32.t
  val list : t -> (t -> 'a) -> 'a list
  val position : t -> int
  (** Offset of the next byte to read, counted from the start of the
      string (not from [pos]). *)

  val at_end : t -> bool
  val expect_end : t -> unit
  (** @raise Malformed if trailing bytes remain. *)
end
