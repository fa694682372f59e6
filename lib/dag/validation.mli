(** Structural and cryptographic validation of DAG messages.

    Everything a correct replica checks before acting on a message; invalid
    messages are treated as Byzantine and dropped. Signature checks can be
    switched off globally for large benchmark runs (the simulated scheme's
    cost is then still modeled by the network CPU model), but all tests run
    with them on.

    Invariants:
    - validation is pure: no clock, no randomness, no I/O — a message's
      verdict depends only on (committee, message);
    - with [verify_signatures:false], the structural checks still run; the
      flag only skips cryptographic verification, never widens what is
      accepted structurally;
    - every SHA-256/HMAC check of a broadcast value — the digest binding,
      the author signature, the certificate multisig and the
      checkpoint-vote signature — goes through one memo of verified
      values, which never changes a verdict, only the cost of reaching
      one (a vote is unicast, so its signature is always checked in
      full). A hit needs the very record the check reads ([==]: the
      node, the certificate, the checkpoint-vote message) under the very
      registry ([committee.keys]) it passed under, so a forged twin
      sharing a field with an honest value still takes the full check.
      Only passes are stored; the structural checks run on every call.
      A binding or certificate entry also records the lane it held for:
      the digest and the vote preimage bind the DAG lane
      ({!Types.node_digest}, {!Types.vote_preimage}), so the same node or
      certificate checked for another lane takes the full check, and
      fails it;
    - the memo is one direct-mapped table per domain, with no lock: each
      domain replays only verdicts it reached itself, so every function
      here is safe to call from any domain. A decoded copy is a distinct
      value, so the realtime node checks every copy in full. *)

val validate_proposal :
  lane:int -> committee:Committee.t -> verify_signatures:bool -> Types.node -> (unit, string) result
(** Checks: author in range, round >= 0, parents structure — round 0 nodes
    have no parents, later rounds have >= n-f parents, all from round-1 with
    distinct valid authors —, digest binds content and [lane] (the DAG
    lane the node arrived on), author signature. *)

val validate_vote :
  lane:int ->
  committee:Committee.t ->
  verify_signatures:bool ->
  Types.vote ->
  (unit, string) result
(** Checks: voter and voted author in range, and the voter's signature
    over the vote preimage for [lane], the DAG lane the vote arrived on. *)

val validate_certificate :
  lane:int ->
  committee:Committee.t ->
  verify_signatures:bool ->
  Types.certificate ->
  (unit, string) result
(** Checks: >= n-f distinct signers and multisig validity over the vote
    preimage for [lane] — of the aggregate as carried by the
    certificate, which for a decoded message is the one the sender put on
    the wire. *)

val validate_certified_node :
  lane:int ->
  committee:Committee.t ->
  verify_signatures:bool ->
  Types.certified_node ->
  (unit, string) result
(** Node and certificate valid for [lane], and the certificate matches
    the node. *)

val signatures_ok : ?lane:int -> committee:Committee.t -> Types.message -> bool
(** Just the cryptographic checks of a message — author signature for a
    proposal, voter signature for a vote, multisig for a certificate, both
    for each certified node of a fetch response or sync page, the voter's
    signature over {!Shoalpp_storage.Checkpoint.preimage_of_digest} for a
    checkpoint vote (a verifier needs only the digest voted on, never the
    full candidate), vacuously true for the other requests. Votes and
    certificates are checked for [lane] (default 0), the lane of the
    envelope that carried them; checkpoint votes carry no lane. All of it
    with none of
    the structural checks. This is the closure the multicore node hands
    to {!Shoalpp_backend.Verify_pool}: a message that passes here can be
    processed by an instance configured with [verify_signatures:false]
    and reach exactly the verdicts inline verification would have
    produced, because the structural half still runs in the instance. *)

type check = Binding | Proposal_signature | Certificate_multisig | Checkpoint_vote_signature

val memo_counts : check -> int * int
(** [(hits, full checks)] of the calling domain's memo for one kind of
    check since the domain started, counting failed checks as full ones.
    For tests that pin what the memo saves; no telemetry reads it. *)
