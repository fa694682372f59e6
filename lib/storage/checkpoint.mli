(** Commit-certified checkpoints.

    A checkpoint summarizes a committed prefix of the merged Shoal++ output
    (Alg. 3): the last global sequence number covered, one frontier entry
    per staggered DAG lane (the lane's committed anchor round plus an opaque
    consensus-resume blob captured by the lane's {!Shoalpp_consensus}
    driver), and a running digest over the committed segment stream. Every
    replica computes the candidate locally at the same deterministic merge
    boundary, signs its digest, and a quorum of matching votes aggregates
    into a multisig certificate — only a {e certified} checkpoint may
    authorize pruning or WAL truncation, and a recovering replica adopts a
    peer's checkpoint only after {!verify}.

    Invariants:
    - [digest]/[preimage] are pure functions of the candidate's wire
      encoding, so two replicas with byte-equal committed prefixes produce
      byte-equal checkpoint digests;
    - the digest is computed once per candidate, when {!candidate} or
      {!decode} builds it; [digest], [preimage], [sign] and [verify] read
      the stored value, so a vote or certificate check never re-encodes
      the candidate (each signature is still checked);
    - [verify] accepts only certificates whose signer bitmap meets the
      quorum {e and} whose aggregate verifies over this exact candidate —
      tampering with seq, any lane frontier, or the state digest breaks it;
    - [encode]/[decode] round-trip: the blob carries the signer list and
      the 32-byte aggregate, and [decode] keeps the aggregate as received
      (as [Types.decode_message] does for certificates), so a blob with a
      wrong aggregate fails [verify]. *)

type lane = { dag_id : int; round : int; resume : string }
(** Per-lane frontier: the highest committed anchor round covered and the
    lane driver's opaque resume blob (ordered-window, pending anchors,
    reputation state). *)

type candidate = private {
  seq : int;
  lanes : lane list;
  state : Shoalpp_crypto.Digest32.t;
  digest : Shoalpp_crypto.Digest32.t;
}
(** [seq] is the last global sequence number the checkpoint covers; [lanes]
    are sorted by [dag_id]; [state] is the running commit-stream digest;
    [digest] is the SHA-256 of {!encode_candidate}, fixed at construction. *)

val candidate :
  seq:int -> lanes:lane list -> state:Shoalpp_crypto.Digest32.t -> candidate
(** Build a candidate and hash its encoding — the one digest computation in
    its lifetime. *)

val fold_segment :
  Shoalpp_crypto.Digest32.t -> dag_id:int -> round:int -> author:int -> Shoalpp_crypto.Digest32.t
(** Advance the running commit-stream digest by one merged segment: the
    SHA-256 of the previous digest's raw bytes followed by the decimal
    [dag_id ^ "/" ^ round ^ "/" ^ author] of the segment's anchor. *)

type t
(** A certified checkpoint: candidate + multisig over its digest. *)

val digest : candidate -> Shoalpp_crypto.Digest32.t
(** The stored digest: [Digest32.of_string (encode_candidate c)]. *)

val preimage : candidate -> string
(** The signed message: a domain-separated tag over {!digest}. *)

val preimage_of_digest : Shoalpp_crypto.Digest32.t -> string
(** Same tag from a bare digest — what a checkpoint-vote verifier signs
    against before it has (or needs) the full candidate. *)

val encode_candidate : candidate -> string

val sign : Shoalpp_crypto.Signer.keypair -> candidate -> Shoalpp_crypto.Signer.signature
val certify :
  n:int ->
  candidate ->
  (Shoalpp_crypto.Signer.public * Shoalpp_crypto.Signer.signature) list ->
  t
(** Aggregate quorum votes into a certificate. Callers check the vote count
    before aggregating; {!verify} re-checks.
    @raise Invalid_argument on duplicate or out-of-range signers. *)

val verify : keys:Shoalpp_crypto.Signer.registry -> quorum:int -> t -> bool
(** Quorum of signers and an aggregate that verifies against the
    committee's key registry. *)

val candidate_of : t -> candidate
(** The certified candidate, digest included (for a decoded checkpoint,
    the digest {!decode} computed). *)

val seq : t -> int
val lanes : t -> lane list
val state : t -> Shoalpp_crypto.Digest32.t
val cert : t -> Shoalpp_crypto.Multisig.t

val encode : t -> string
val decode : n:int -> string -> t
(** Decode a blob for a committee of [n].
    @raise Shoalpp_codec.Wire.Reader.Malformed on corrupt input, including
    a signer id [>= n], a signer named twice, an aggregate of the wrong
    length, or [n] above {!Shoalpp_crypto.Multisig.max_capacity} (checked
    before the signer bitmap is allocated). *)

val wire_size : t -> int
val pp : Format.formatter -> t -> unit
