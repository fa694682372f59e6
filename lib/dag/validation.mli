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
    - the internal binding-digest memo is an invisible cache: it never
      changes a verdict, only the cost of recomputing one. It is
      mutex-guarded (the sole effect in this module) so the multicore
      node's lane domains and verify-pool workers can validate
      concurrently; every function here is safe to call from any domain. *)

val validate_proposal :
  committee:Committee.t -> verify_signatures:bool -> Types.node -> (unit, string) result
(** Checks: author in range, round >= 0, parents structure — round 0 nodes
    have no parents, later rounds have >= n-f parents, all from round-1 with
    distinct valid authors —, digest binds content, author signature. *)

val validate_vote :
  committee:Committee.t -> verify_signatures:bool -> Types.vote -> (unit, string) result

val validate_certificate :
  committee:Committee.t -> verify_signatures:bool -> Types.certificate -> (unit, string) result
(** Checks: >= n-f distinct signers and multisig validity over the vote
    preimage — of the aggregate as carried by the certificate, which for a
    decoded message is the one the sender put on the wire. *)

val validate_certified_node :
  committee:Committee.t -> verify_signatures:bool -> Types.certified_node -> (unit, string) result
(** Node and certificate valid, and the certificate matches the node. *)

val checkpoint_vote_signature_ok :
  committee:Committee.t ->
  ck_digest:Shoalpp_crypto.Digest32.t ->
  ck_voter:int ->
  ck_signature:Shoalpp_crypto.Signer.signature ->
  bool
(** The voter's signature over the checkpoint-digest preimage
    ({!Shoalpp_storage.Checkpoint.preimage_of_digest}): a verifier needs
    only the digest being voted on, never the full candidate. *)

val signatures_ok : committee:Committee.t -> Types.message -> bool
(** Just the cryptographic checks of a message — author signature for a
    proposal, voter signature for a vote, multisig for a certificate, both
    for a fetch response, vacuously true for a fetch request — with none
    of the structural checks. This is the closure the multicore node hands
    to {!Shoalpp_backend.Verify_pool}: a message that passes here can be
    processed by an instance configured with [verify_signatures:false]
    and reach exactly the verdicts inline verification would have
    produced, because the structural half still runs in the instance. *)
