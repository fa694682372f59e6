(** Core data types of the certified DAG (Narwhal-style, §3.1 of the paper).

    A {e node} is one replica's proposal for one round: a transaction batch
    plus n-f parent references to certified round r-1 nodes. A node becomes
    part of the DAG once {e certified} by an n-f quorum of vote signatures
    aggregated into a {!certificate}.

    Invariants:
    - [compare_ref] is a total order on (round, author, digest) built from
      monomorphic comparators, consistent with [ref_equal];
    - packed integer keys are injective over in-range (round, author,
      instance) tuples, so a packed key identifies one position;
    - [encode_message]/[decode_message] round-trip every message variant. *)

type round = int
type replica = int

type node_ref = { ref_round : round; ref_author : replica; ref_digest : Shoalpp_crypto.Digest32.t }
(** Compact reference to a (certified) node: its DAG position and digest. *)

type node = {
  round : round;
  author : replica;
  batch : Shoalpp_workload.Batch.t;
  parents : node_ref list;  (** refs to certified nodes of [round - 1]; [] only in round 0 *)
  weak_parents : node_ref list;
      (** weak edges (DAG-Rider / Bullshark validity mechanism): refs to
          certified nodes from rounds [< round - 1] that would otherwise be
          orphaned — they join the causal history (and thus get ordered) but
          do {e not} count as votes for commit rules *)
  digest : Shoalpp_crypto.Digest32.t;
      (** binds the lane, round, author, batch digest and parents *)
  signature : Shoalpp_crypto.Signer.signature;  (** author's signature over [digest] *)
  created_at : float;  (** local creation time; informational, not signed *)
}

type vote = {
  vote_round : round;
  vote_author : replica;  (** author of the proposal being voted for *)
  vote_digest : Shoalpp_crypto.Digest32.t;
  voter : replica;
  vote_signature : Shoalpp_crypto.Signer.signature;
}

type certificate = {
  cert_ref : node_ref;
  multisig : Shoalpp_crypto.Multisig.t;  (** >= n-f distinct vote signatures *)
}

type certified_node = { cn_node : node; cn_cert : certificate }

(** Catch-up sync protocol: a lagging or recovering replica pulls certified
    history from peers instead of replaying from genesis (modal-sequencer
    DAG_SYNC shape). Serviced out of the DAG store's retained window.
    Request tags 1 (a round probe, now carried by the first page) and 3
    and response tag 1 are retired: they decode as malformed. *)
type sync_request =
  | Get_certificates_in_range of { sr_from : round; sr_to : round; sr_cursor : int }
      (** Certified nodes with [sr_from <= round <= sr_to], paged from
          [sr_cursor] (an opaque position the server handed back). *)
  | Get_checkpoint  (** The responder's latest certified checkpoint blob. *)

type sync_response =
  | Certificates of {
      sc_certs : certified_node list;
      sc_has_more : bool;
      sc_next : int;
      sc_highest : round;
    }
      (** One page; [sc_next] is the cursor to resume from iff
          [sc_has_more]; [sc_highest] is the responder's highest round,
          which a client's first page pins as its target. *)
  | Checkpoint_blob of { cb_blob : string option }
      (** Wire-encoded {!Shoalpp_storage.Checkpoint.t}, if one exists. *)

(** DAG protocol messages. [Proposal] and [Vote] and [Certificate] are the
    three reliable-broadcast steps; [Fetch_request]/[Fetch_response]
    implement §7's off-critical-path node fetching. [Checkpoint_vote] and
    the sync pair ride the control plane (dag id 255 envelopes) and are
    handled above the DAG instance, by the replica's checkpoint manager and
    sync module. *)
type message =
  | Proposal of node
  | Vote of vote
  | Certificate of certificate
  | Fetch_request of { wanted : node_ref; requester : replica }
  | Fetch_response of certified_node
  | Checkpoint_vote of {
      ck_seq : int;
      ck_digest : Shoalpp_crypto.Digest32.t;
      ck_voter : replica;
      ck_signature : Shoalpp_crypto.Signer.signature;
          (** voter's signature over
              [Shoalpp_storage.Checkpoint.preimage_of_digest ck_digest] *)
    }
  | Sync_request of { sq_requester : replica; sq_req : sync_request }
  | Sync_response of { sp_responder : replica; sp_resp : sync_response }

val ref_of_node : node -> node_ref

val node_digest :
  lane:int ->
  round:round ->
  author:replica ->
  batch_digest:Shoalpp_crypto.Digest32.t ->
  parents:node_ref list ->
  weak_parents:node_ref list ->
  Shoalpp_crypto.Digest32.t
(** The canonical signing preimage of a node. It binds the DAG lane the
    node is proposed in, so a node, and every vote and certificate on its
    digest, names one lane: the lanes' otherwise identical nodes (round 0
    with empty batches) have distinct digests, and a value replayed into
    another lane fails its digest binding there. *)

val max_weak_parents : int
(** Per-node cap on weak edges (validation rejects more). *)

val vote_preimage :
  lane:int -> round:round -> author:replica -> digest:Shoalpp_crypto.Digest32.t -> string
(** Bytes a voter signs. They bind the DAG lane, so a vote, and a
    certificate aggregating votes, verifies only in the lane it was cast
    in: a certificate replayed into another lane fails its multisig
    there. *)

val ref_equal : node_ref -> node_ref -> bool
val compare_ref : node_ref -> node_ref -> int
val pp_ref : Format.formatter -> node_ref -> unit

(** Modeled wire sizes in bytes, derived from the binary encodings. The
    network charges bandwidth and CPU for these. *)

val message_size : message -> int

val write_message : Shoalpp_codec.Wire.Writer.t -> message -> unit
(** Append the binary encoding to a writer, so a caller can put its own
    header (the node's lane tag, a frame prefix) in the same buffer. *)

val encode_message : message -> string
(** Reference binary encoding (validated round-trip in tests; the simulator
    passes values in memory and charges for [message_size] bytes). A
    certificate carries its signer list and its 32-byte aggregate. *)

val decode_message : ?pos:int -> lane:int -> string -> (message, string) result
(** Decode the message that starts at offset [pos] (default 0) and runs to
    the end of the string, and validate its structure. [lane] is the DAG
    lane it arrived on (the envelope's tag, the WAL entry's lane): a node's
    digest is recomputed for that lane. Signatures and
    aggregates are kept as received and are not checked here; a signer
    bitmap claiming a capacity above {!Shoalpp_crypto.Multisig.max_capacity}
    is an [Error], found before anything is allocated for it. *)
