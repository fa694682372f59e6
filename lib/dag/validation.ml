module Digest32 = Shoalpp_crypto.Digest32
module Signer = Shoalpp_crypto.Signer
module Multisig = Shoalpp_crypto.Multisig
module Bitset = Shoalpp_support.Bitset

let ( let* ) r f = Result.bind r f

(* The error message is only formatted on rejection: validation runs on
   every received message, so the success path is plain comparisons with
   no format work at all. *)
let fail fmt = Printf.ksprintf (fun m -> Error m) fmt

let validate_parents committee (node : Types.node) =
  if node.Types.round = 0 then
    if node.Types.parents = [] then Ok () else fail "round-0 node must have no parents"
  else begin
    let n_parents = List.length node.Types.parents in
    let quorum = Committee.quorum committee in
    if n_parents < quorum then fail "node has %d parents, need >= %d" n_parents quorum
    else begin
      (* An n-bit scratch of the authors named so far; every author is
         checked valid before it indexes the scratch. *)
      let seen = Bitset.create committee.Committee.n in
      let rec go = function
        | [] -> Ok ()
        | (p : Types.node_ref) :: rest ->
          if p.Types.ref_round <> node.Types.round - 1 then
            fail "parent from round %d, expected %d" p.Types.ref_round (node.Types.round - 1)
          else if not (Committee.valid_replica committee p.Types.ref_author) then
            fail "parent author %d invalid" p.Types.ref_author
          else if Bitset.mem seen p.Types.ref_author then fail "duplicate parent author"
          else begin
            Bitset.set seen p.Types.ref_author;
            go rest
          end
      in
      go node.Types.parents
    end
  end

(* Whether one of the first [k] refs of [refs] names [p]'s (round, author). *)
let rec named_before (p : Types.node_ref) k = function
  | (q : Types.node_ref) :: rest when k > 0 ->
      (q.Types.ref_round = p.Types.ref_round && q.Types.ref_author = p.Types.ref_author)
      || named_before p (k - 1) rest
  | _ -> false

let validate_weak_parents committee (node : Types.node) =
  let weak = node.Types.weak_parents in
  let nweak = List.length weak in
  if nweak > Types.max_weak_parents then
    fail "%d weak parents, cap is %d" nweak Types.max_weak_parents
  else begin
    (* At most [max_weak_parents] refs, so duplicates are found by scanning
       the refs already checked. *)
    let rec go k = function
      | [] -> Ok ()
      | (p : Types.node_ref) :: rest ->
        if not (p.Types.ref_round >= 0 && p.Types.ref_round < node.Types.round - 1) then
          fail "weak parent from round %d, need < %d" p.Types.ref_round (node.Types.round - 1)
        else if not (Committee.valid_replica committee p.Types.ref_author) then
          fail "weak parent author invalid"
        else if named_before p k weak then fail "duplicate weak parent"
        else go (k + 1) rest
    in
    go 0 weak
  end

(* The memo of verified values. One simulated broadcast hands the same
   physical value to all n receivers, each recomputing one SHA-256/HMAC
   verdict. A slot holds the whole record an expensive check passed on
   and, for signatures, the registry it was checked under. A hit needs that
   very value ([==]) under that very registry, so it only replays a verdict
   the full check gave for the same immutable value; a forged twin
   ([{ cert with cert_ref }]) is another record and misses. Failures are
   never stored. Each domain owns one direct-mapped table (sized by its
   n=100 hit rate, see EXPERIMENTS.md): nothing is shared and a collision
   just overwrites the slot. *)
type check = Binding | Proposal_signature | Certificate_multisig | Checkpoint_vote_signature

type entry =
  | Empty
  | Bound of Types.node * int (* the lane the binding held for *)
  | Signed of Types.node * Signer.registry
  | Certified of Types.certificate * Signer.registry * int (* and the lane *)
  | Ck_signed of Types.message * Signer.registry

let same a b =
  match (a, b) with
  | Bound (x, l), Bound (y, l') -> x == y && Int.equal l l'
  | Signed (x, k), Signed (y, k') -> x == y && k == k'
  | Certified (x, k, l), Certified (y, k', l') -> x == y && k == k' && Int.equal l l'
  | Ck_signed (x, k), Ck_signed (y, k') -> x == y && k == k'
  | _ -> false

type memo = { slots : entry array; hits : int array; misses : int array }

let memo =
  Shoalpp_backend.Backend.domain_local (fun () ->
      { slots = Array.make 8192 Empty; hits = Array.make 4 0; misses = Array.make 4 0 })

let index = function Binding -> 0 | Proposal_signature -> 1 | Certificate_multisig -> 2 | _ -> 3

let memo_counts check = let m = memo () in (m.hits.(index check), m.misses.(index check))

(* [full ()] runs only on a miss. Each check has its own offset, so a node's
   binding, signature and certificate (one digest) do not evict each other. *)
let memoized check ~hash entry full =
  let m = memo () and k = index check in
  let i = (hash + (k * 0x9E3779B1)) land (Array.length m.slots - 1) in
  let hit = same m.slots.(i) entry in
  if hit then m.hits.(k) <- m.hits.(k) + 1 else m.misses.(k) <- m.misses.(k) + 1;
  let ok = hit || full () in
  if ok && not hit then m.slots.(i) <- entry;
  ok

let binding_holds ~lane (node : Types.node) =
  memoized Binding ~hash:(Digest32.hash node.Types.digest) (Bound (node, lane)) (fun () ->
      Digest32.equal node.Types.digest
        (Types.node_digest ~lane ~round:node.Types.round ~author:node.Types.author
           ~batch_digest:node.Types.batch.Shoalpp_workload.Batch.digest
           ~parents:node.Types.parents ~weak_parents:node.Types.weak_parents))

(* Shared by the inline validators below and by {!signatures_ok}, the
   entry point the verify pool uses to run just the cryptographic part of
   validation on a worker domain. *)
let proposal_signature_ok ~committee (node : Types.node) =
  let keys = committee.Committee.keys and d = node.Types.digest in
  memoized Proposal_signature ~hash:(Digest32.hash d) (Signed (node, keys)) (fun () ->
      Signer.verify keys node.Types.author (Digest32.raw d) node.Types.signature)

(* Not memoized: a vote is unicast, so no value reaches a second receiver. *)
let vote_signature_ok ~lane ~committee (v : Types.vote) =
  Signer.verify committee.Committee.keys v.Types.voter
    (Types.vote_preimage ~lane ~round:v.Types.vote_round ~author:v.Types.vote_author
       ~digest:v.Types.vote_digest)
    v.Types.vote_signature

let certificate_signature_ok ~lane ~committee (c : Types.certificate) =
  let keys = committee.Committee.keys and r = c.Types.cert_ref in
  memoized Certificate_multisig ~hash:(Digest32.hash r.Types.ref_digest)
    (Certified (c, keys, lane)) (fun () ->
      Multisig.verify keys c.Types.multisig
        (Types.vote_preimage ~lane ~round:r.Types.ref_round ~author:r.Types.ref_author
           ~digest:r.Types.ref_digest))

let signatures_ok ?(lane = 0) ~committee (msg : Types.message) =
  let certified_ok (cn : Types.certified_node) =
    proposal_signature_ok ~committee cn.Types.cn_node
    && certificate_signature_ok ~lane ~committee cn.Types.cn_cert
  in
  match msg with
  | Types.Proposal node -> proposal_signature_ok ~committee node
  | Types.Vote v -> vote_signature_ok ~lane ~committee v
  | Types.Certificate c -> certificate_signature_ok ~lane ~committee c
  | Types.Fetch_response cn -> certified_ok cn
  | Types.Checkpoint_vote { ck_digest; ck_voter; ck_signature; _ } ->
    (* Keyed on the whole message; every voter signs the same digest, so
       the voter picks the slot too. *)
    let keys = committee.Committee.keys in
    memoized Checkpoint_vote_signature ~hash:(Digest32.hash ck_digest + ck_voter)
      (Ck_signed (msg, keys)) (fun () ->
        Signer.verify keys ck_voter
          (Shoalpp_storage.Checkpoint.preimage_of_digest ck_digest) ck_signature)
  | Types.Sync_response { sp_resp = Types.Certificates { sc_certs; _ }; _ } ->
    List.for_all certified_ok sc_certs
  | Types.Fetch_request _ | Types.Sync_request _ | Types.Sync_response _ -> true

let validate_proposal ~lane ~committee ~verify_signatures (node : Types.node) =
  if not (Committee.valid_replica committee node.Types.author) then fail "author out of range"
  else if node.Types.round < 0 then fail "negative round"
  else
    let* () = validate_parents committee node in
    let* () = validate_weak_parents committee node in
    (* The digest binds the node's fields in both crypto modes: trusted-mode
       runs still reject tampered content (see dag.validation "digest
       binding"), only signature verification is elided. *)
    if not (binding_holds ~lane node) then fail "digest mismatch"
    else if verify_signatures && not (proposal_signature_ok ~committee node) then
      fail "bad author signature"
    else Ok ()

let validate_vote ~lane ~committee ~verify_signatures (v : Types.vote) =
  if not (Committee.valid_replica committee v.Types.voter) then fail "voter out of range"
  else if not (Committee.valid_replica committee v.Types.vote_author) then
    fail "vote author out of range"
  else if verify_signatures && not (vote_signature_ok ~lane ~committee v) then
    fail "bad vote signature"
  else Ok ()

let validate_certificate ~lane ~committee ~verify_signatures (c : Types.certificate) =
  let cap = Multisig.capacity c.Types.multisig in
  let nsig = Multisig.num_signers c.Types.multisig in
  if cap <> committee.Committee.n then
    fail "certificate bitmap sized %d, committee has %d" cap committee.Committee.n
  else if nsig < Committee.quorum committee then
    fail "certificate has %d signers, need >= %d" nsig (Committee.quorum committee)
  else if not (Committee.valid_replica committee c.Types.cert_ref.Types.ref_author) then
    fail "certified author out of range"
  else if verify_signatures && not (certificate_signature_ok ~lane ~committee c) then
    fail "bad certificate multisig"
  else Ok ()

let validate_certified_node ~lane ~committee ~verify_signatures (cn : Types.certified_node) =
  let* () = validate_proposal ~lane ~committee ~verify_signatures cn.Types.cn_node in
  let* () = validate_certificate ~lane ~committee ~verify_signatures cn.Types.cn_cert in
  if Types.ref_equal (Types.ref_of_node cn.Types.cn_node) cn.Types.cn_cert.Types.cert_ref then
    Ok ()
  else fail "certificate does not match node"
