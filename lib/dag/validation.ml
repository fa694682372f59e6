module Digest32 = Shoalpp_crypto.Digest32
module Signer = Shoalpp_crypto.Signer
module Multisig = Shoalpp_crypto.Multisig
module Bitset = Shoalpp_support.Bitset

let ( let* ) r f = Result.bind r f

(* The error message is only materialized on failure: validation runs on
   every received message, and eagerly formatting the (almost always
   discarded) success-path string dominated the simulator's allocation
   profile. [ikfprintf] consumes the format arguments without building
   anything. *)
let check cond fmt =
  if cond then Printf.ikfprintf (fun () -> Ok ()) () fmt
  else Printf.ksprintf (fun m -> Error m) fmt

let validate_parents committee (node : Types.node) =
  if node.Types.round = 0 then
    check (node.Types.parents = []) "round-0 node must have no parents"
  else begin
    let n_parents = List.length node.Types.parents in
    let* () =
      check
        (n_parents >= Committee.quorum committee)
        "node has %d parents, need >= %d" n_parents (Committee.quorum committee)
    in
    (* An n-bit scratch of the authors named so far; every author is
       checked valid before it indexes the scratch. *)
    let seen = Bitset.create committee.Committee.n in
    List.fold_left
      (fun acc (p : Types.node_ref) ->
        let* () = acc in
        let* () =
          check (p.Types.ref_round = node.Types.round - 1) "parent from round %d, expected %d"
            p.Types.ref_round (node.Types.round - 1)
        in
        let* () =
          check (Committee.valid_replica committee p.Types.ref_author) "parent author %d invalid"
            p.Types.ref_author
        in
        let* () = check (not (Bitset.mem seen p.Types.ref_author)) "duplicate parent author" in
        Bitset.set seen p.Types.ref_author;
        Ok ())
      (Ok ()) node.Types.parents
  end

(* Whether one of the first [k] refs of [refs] names [p]'s (round, author). *)
let rec named_before (p : Types.node_ref) k = function
  | (q : Types.node_ref) :: rest when k > 0 ->
      (q.Types.ref_round = p.Types.ref_round && q.Types.ref_author = p.Types.ref_author)
      || named_before p (k - 1) rest
  | _ -> false

let validate_weak_parents committee (node : Types.node) =
  let nweak = List.length node.Types.weak_parents in
  let* () =
    check (nweak <= Types.max_weak_parents) "%d weak parents, cap is %d" nweak
      Types.max_weak_parents
  in
  (* At most [max_weak_parents] refs, so duplicates are found by scanning
     the refs already checked. *)
  let weak = node.Types.weak_parents in
  let rec go k = function
    | [] -> Ok ()
    | (p : Types.node_ref) :: rest ->
        let* () =
          check
            (p.Types.ref_round >= 0 && p.Types.ref_round < node.Types.round - 1)
            "weak parent from round %d, need < %d" p.Types.ref_round (node.Types.round - 1)
        in
        let* () =
          check (Committee.valid_replica committee p.Types.ref_author) "weak parent author invalid"
        in
        let* () = check (not (named_before p k weak)) "duplicate weak parent" in
        go (k + 1) rest
  in
  go 0 weak

(* Memo for the digest-binding check. In the simulator one broadcast hands
   the same physical [Types.node] to every receiver, so recomputing the
   SHA-256 header digest per receiver multiplies the single most expensive
   validation step by n. A cache hit requires the stored node to be
   physically equal ([==]) to the candidate, so it can only replay a result
   the full recompute already produced — a forged node reusing a cached
   digest is a different value and takes the slow path. Only successful
   bindings are cached; the table is reset at a size cap to bound memory. *)
(* The memo stays a single process-wide table so the sim's allocation
   profile is unchanged, which means the multicore node's lane domains
   share it: the mutex makes lookup and insert atomic. The SHA-256
   recompute — the expensive part — runs outside the lock. *)
let binding_mu = Mutex.create ()

let binding_cache : (Digest32.t, Types.node) Hashtbl.t = Hashtbl.create 1024
[@@shoalpp.guarded_by "binding_mu"]

let binding_cache_cap = 8192

(* Exception-safe critical section: [Hashtbl] operations on a corrupted
   heap (or an async exception landing between lock and unlock) must not
   leave [binding_mu] held forever for every other lane domain. *)
let with_mu f =
  Mutex.lock binding_mu;
  match f () with
  | v ->
    Mutex.unlock binding_mu;
    v
  | exception e ->
    Mutex.unlock binding_mu;
    raise e

let binding_holds (node : Types.node) =
  let hit =
    with_mu (fun () ->
        match Hashtbl.find_opt binding_cache node.Types.digest with
        | Some cached when cached == node -> true
        | _ -> false)
  in
  hit
  ||
  let expected =
    Types.node_digest ~round:node.Types.round ~author:node.Types.author
      ~batch_digest:node.Types.batch.Shoalpp_workload.Batch.digest ~parents:node.Types.parents
      ~weak_parents:node.Types.weak_parents
  in
  let ok = Digest32.equal expected node.Types.digest in
  if ok then
    with_mu (fun () ->
        if Hashtbl.length binding_cache >= binding_cache_cap then Hashtbl.reset binding_cache;
        Hashtbl.replace binding_cache node.Types.digest node);
  ok

(* Shared by the inline validators below and by {!signatures_ok}, the
   entry point the verify pool uses to run just the cryptographic part of
   validation on a worker domain. *)
let proposal_signature_ok ~committee (node : Types.node) =
  Signer.verify committee.Committee.keys node.Types.author
    (Digest32.raw node.Types.digest) node.Types.signature

let vote_signature_ok ~committee (v : Types.vote) =
  let preimage =
    Types.vote_preimage ~round:v.Types.vote_round ~author:v.Types.vote_author
      ~digest:v.Types.vote_digest
  in
  Signer.verify committee.Committee.keys v.Types.voter preimage
    v.Types.vote_signature

let certificate_signature_ok ~committee (c : Types.certificate) =
  let preimage =
    Types.vote_preimage ~round:c.Types.cert_ref.Types.ref_round
      ~author:c.Types.cert_ref.Types.ref_author ~digest:c.Types.cert_ref.Types.ref_digest
  in
  Multisig.verify committee.Committee.keys c.Types.multisig preimage

let checkpoint_vote_signature_ok ~committee ~ck_digest ~ck_voter ~ck_signature =
  Signer.verify committee.Committee.keys ck_voter
    (Shoalpp_storage.Checkpoint.preimage_of_digest ck_digest)
    ck_signature

let signatures_ok ~committee (msg : Types.message) =
  match msg with
  | Types.Proposal node -> proposal_signature_ok ~committee node
  | Types.Vote v -> vote_signature_ok ~committee v
  | Types.Certificate c -> certificate_signature_ok ~committee c
  | Types.Fetch_request _ -> true
  | Types.Fetch_response cn ->
    proposal_signature_ok ~committee cn.Types.cn_node
    && certificate_signature_ok ~committee cn.Types.cn_cert
  | Types.Checkpoint_vote { ck_digest; ck_voter; ck_signature; _ } ->
    checkpoint_vote_signature_ok ~committee ~ck_digest ~ck_voter ~ck_signature
  | Types.Sync_request _ -> true
  | Types.Sync_response { sp_resp = Types.Certificates { sc_certs; _ }; _ } ->
    List.for_all
      (fun cn ->
        proposal_signature_ok ~committee cn.Types.cn_node
        && certificate_signature_ok ~committee cn.Types.cn_cert)
      sc_certs
  | Types.Sync_response _ -> true

let validate_proposal ~committee ~verify_signatures (node : Types.node) =
  let* () = check (Committee.valid_replica committee node.Types.author) "author out of range" in
  let* () = check (node.Types.round >= 0) "negative round" in
  let* () = validate_parents committee node in
  let* () = validate_weak_parents committee node in
  (* The digest binds the node's fields in both crypto modes: trusted-mode
     runs still reject tampered content (see dag.validation "digest
     binding"), only signature verification is elided. *)
  let* () = check (binding_holds node) "digest mismatch" in
  if verify_signatures then
    check (proposal_signature_ok ~committee node) "bad author signature"
  else Ok ()

let validate_vote ~committee ~verify_signatures (v : Types.vote) =
  let* () = check (Committee.valid_replica committee v.Types.voter) "voter out of range" in
  let* () = check (Committee.valid_replica committee v.Types.vote_author) "vote author out of range" in
  if verify_signatures then check (vote_signature_ok ~committee v) "bad vote signature"
  else Ok ()

let validate_certificate ~committee ~verify_signatures (c : Types.certificate) =
  let cap = Multisig.capacity c.Types.multisig in
  let* () =
    check (cap = committee.Committee.n) "certificate bitmap sized %d, committee has %d" cap
      committee.Committee.n
  in
  let nsig = Multisig.num_signers c.Types.multisig in
  let* () =
    check (nsig >= Committee.quorum committee) "certificate has %d signers, need >= %d" nsig
      (Committee.quorum committee)
  in
  let* () =
    check (Committee.valid_replica committee c.Types.cert_ref.Types.ref_author)
      "certified author out of range"
  in
  if verify_signatures then
    check (certificate_signature_ok ~committee c) "bad certificate multisig"
  else Ok ()

let validate_certified_node ~committee ~verify_signatures (cn : Types.certified_node) =
  let* () = validate_proposal ~committee ~verify_signatures cn.Types.cn_node in
  let* () = validate_certificate ~committee ~verify_signatures cn.Types.cn_cert in
  check
    (Types.ref_equal (Types.ref_of_node cn.Types.cn_node) cn.Types.cn_cert.Types.cert_ref)
    "certificate does not match node"
