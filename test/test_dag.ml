(* Tests for the certified-DAG layer: types and wire encoding, validation
   rules, the DAG store (counters, causal traversal, weak edges, GC), and
   the committee configuration. *)

module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store
module Committee = Shoalpp_dag.Committee
module Validation = Shoalpp_dag.Validation
module Digest32 = Shoalpp_crypto.Digest32
module Signer = Shoalpp_crypto.Signer
module Multisig = Shoalpp_crypto.Multisig
module Batch = Shoalpp_workload.Batch
module Transaction = Shoalpp_workload.Transaction

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let committee = Committee.make ~n:4 ~cluster_seed:77 ()

(* ------------------------------------------------------------------ *)
(* Node construction helpers shared by the suites below.               *)

let make_batch ids =
  Batch.make
    ~txns:(List.map (fun id -> Transaction.make ~id ~submitted_at:0.0 ~origin:0 ()) ids)
    ~created_at:0.0

let make_node ?(committee = committee) ?(batch = make_batch []) ?(weak_parents = []) ~round
    ~author ~parents () =
  let digest =
    Types.node_digest ~round ~author ~batch_digest:batch.Batch.digest ~parents ~weak_parents
  in
  let kp = Committee.keypair committee author in
  {
    Types.round;
    author;
    batch;
    parents;
    weak_parents;
    digest;
    signature = Signer.sign kp (Digest32.raw digest);
    created_at = 0.0;
  }

let certify ?(committee = committee) (node : Types.node) =
  let preimage =
    Types.vote_preimage ~round:node.Types.round ~author:node.Types.author
      ~digest:node.Types.digest
  in
  let sigs =
    List.init (Committee.quorum committee) (fun i ->
        (i, Signer.sign (Committee.keypair committee i) preimage))
  in
  {
    Types.cn_node = node;
    cn_cert =
      {
        Types.cert_ref = Types.ref_of_node node;
        multisig = Multisig.aggregate ~n:committee.Committee.n sigs;
      };
  }

(* Build a full certified round: each author references all nodes of the
   previous round (or a chosen subset). *)
let full_round ~round ~parents ?(authors = [ 0; 1; 2; 3 ]) () =
  List.map (fun author -> certify (make_node ~round ~author ~parents ())) authors

let refs_of cns = List.map (fun cn -> Types.ref_of_node cn.Types.cn_node) cns

(* ------------------------------------------------------------------ *)
(* Committee *)

let test_committee_quorums () =
  let c = Committee.make ~n:4 () in
  checki "f" 1 c.Committee.f;
  checki "quorum" 3 (Committee.quorum c);
  checki "weak" 2 (Committee.weak_quorum c);
  checki "fast" 3 (Committee.fast_quorum c);
  let c10 = Committee.make ~n:10 () in
  checki "f of 10" 3 c10.Committee.f;
  checki "quorum of 10" 7 (Committee.quorum c10);
  checki "fast of 10" 7 (Committee.fast_quorum c10);
  Alcotest.check_raises "too small" (Invalid_argument "Committee.make: need n >= 4") (fun () ->
      ignore (Committee.make ~n:3 ()))

let test_committee_genesis_depends_on_seed () =
  let a = Committee.make ~n:4 ~cluster_seed:1 () in
  let b = Committee.make ~n:4 ~cluster_seed:2 () in
  checkb "distinct genesis" false (Digest32.equal a.Committee.genesis b.Committee.genesis)

(* ------------------------------------------------------------------ *)
(* Types: digest binding and wire encoding *)

let test_node_digest_binds_fields () =
  let r0 = full_round ~round:0 ~parents:[] () in
  let parents = refs_of r0 in
  let base = make_node ~round:1 ~author:0 ~parents () in
  let other_round = make_node ~round:2 ~author:0 ~parents:[] () in
  let other_author = make_node ~round:1 ~author:1 ~parents () in
  let other_batch = make_node ~batch:(make_batch [ 9 ]) ~round:1 ~author:0 ~parents () in
  let fewer_parents = make_node ~round:1 ~author:0 ~parents:(List.tl parents) () in
  List.iter
    (fun (name, n) ->
      checkb name false (Digest32.equal base.Types.digest n.Types.digest))
    [
      ("round", other_round); ("author", other_author); ("batch", other_batch);
      ("parents", fewer_parents);
    ]

let test_weak_parents_in_digest () =
  let r0 = full_round ~round:0 ~parents:[] () in
  let weak = [ List.hd (refs_of r0) ] in
  let a = make_node ~round:3 ~author:0 ~parents:(refs_of r0) () in
  (* parents from round 0 are invalid for round 3, but the digest does not
     care — we only test binding here *)
  let b = make_node ~round:3 ~author:0 ~parents:(refs_of r0) ~weak_parents:weak () in
  checkb "weak parents bound" false (Digest32.equal a.Types.digest b.Types.digest)

let roundtrip msg =
  match Types.decode_message (Types.encode_message msg) with
  | Ok decoded -> decoded
  | Error e -> Alcotest.failf "decode failed: %s" e

let test_encode_decode_proposal () =
  let r0 = full_round ~round:0 ~parents:[] () in
  let node =
    make_node ~batch:(make_batch [ 1; 2; 3 ]) ~round:1 ~author:2 ~parents:(refs_of r0)
      ~weak_parents:[] ()
  in
  match roundtrip (Types.Proposal node) with
  | Types.Proposal n ->
    checkb "digest preserved" true (Digest32.equal node.Types.digest n.Types.digest);
    checki "round" 1 n.Types.round;
    checki "author" 2 n.Types.author;
    checki "txns" 3 (Batch.length n.Types.batch);
    checki "parents" 4 (List.length n.Types.parents);
    (* The decoded node must still validate, signature included. *)
    (match Validation.validate_proposal ~committee ~verify_signatures:true n with
    | Ok () -> ()
    | Error e -> Alcotest.failf "decoded node invalid: %s" e)
  | _ -> Alcotest.fail "wrong message kind"

let test_encode_decode_vote_and_cert () =
  let node = make_node ~round:0 ~author:1 ~parents:[] () in
  let preimage =
    Types.vote_preimage ~round:0 ~author:1 ~digest:node.Types.digest
  in
  let vote =
    {
      Types.vote_round = 0;
      vote_author = 1;
      vote_digest = node.Types.digest;
      voter = 3;
      vote_signature = Signer.sign (Committee.keypair committee 3) preimage;
    }
  in
  (match roundtrip (Types.Vote vote) with
  | Types.Vote v ->
    checki "voter" 3 v.Types.voter;
    (match Validation.validate_vote ~committee ~verify_signatures:true v with
    | Ok () -> ()
    | Error e -> Alcotest.failf "decoded vote invalid: %s" e)
  | _ -> Alcotest.fail "wrong kind");
  let cn = certify node in
  match roundtrip (Types.Certificate cn.Types.cn_cert) with
  | Types.Certificate c -> (
    checki "signers" 3 (Multisig.num_signers c.Types.multisig);
    match Validation.validate_certificate ~committee ~verify_signatures:true c with
    | Ok () -> ()
    | Error e -> Alcotest.failf "decoded cert invalid: %s" e)
  | _ -> Alcotest.fail "wrong kind"

let test_decode_garbage () =
  checkb "garbage rejected" true
    (match Types.decode_message "\x09not-a-message" with
    | Error _ -> true
    | Ok _ -> false);
  checkb "empty rejected" true
    (match Types.decode_message "" with Error _ -> true | Ok _ -> false)

let test_message_sizes_scale () =
  let small = Types.Proposal (make_node ~round:0 ~author:0 ~parents:[] ()) in
  let big =
    Types.Proposal (make_node ~batch:(make_batch (List.init 100 Fun.id)) ~round:0 ~author:0 ~parents:[] ())
  in
  checkb "batch grows size" true (Types.message_size big > Types.message_size small + (100 * 300));
  let vote_size =
    Types.message_size
      (Types.Vote
         {
           Types.vote_round = 0;
           vote_author = 0;
           vote_digest = Digest32.zero;
           voter = 0;
           vote_signature = Signer.sign (Committee.keypair committee 0) "x";
         })
  in
  checkb "votes are small" true (vote_size < 120)

(* ------------------------------------------------------------------ *)
(* Validation rules *)

let expect_invalid name result =
  checkb name true (match result with Error _ -> true | Ok () -> false)

let expect_valid name result =
  match result with Ok () -> () | Error e -> Alcotest.failf "%s: unexpectedly invalid: %s" name e

let test_validation_round0 () =
  expect_valid "round 0 no parents"
    (Validation.validate_proposal ~committee ~verify_signatures:true
       (make_node ~round:0 ~author:0 ~parents:[] ()));
  let r0 = full_round ~round:0 ~parents:[] () in
  expect_invalid "round 0 with parents"
    (Validation.validate_proposal ~committee ~verify_signatures:true
       (make_node ~round:0 ~author:0 ~parents:[ List.hd (refs_of r0) ] ()))

let test_validation_parent_rules () =
  let r0 = full_round ~round:0 ~parents:[] () in
  let refs = refs_of r0 in
  expect_valid "quorum parents"
    (Validation.validate_proposal ~committee ~verify_signatures:true
       (make_node ~round:1 ~author:0 ~parents:(List.filteri (fun i _ -> i < 3) refs) ()));
  expect_invalid "too few parents"
    (Validation.validate_proposal ~committee ~verify_signatures:true
       (make_node ~round:1 ~author:0 ~parents:(List.filteri (fun i _ -> i < 2) refs) ()));
  expect_invalid "wrong parent round"
    (Validation.validate_proposal ~committee ~verify_signatures:true
       (make_node ~round:2 ~author:0 ~parents:refs ()));
  let dup = List.hd refs :: List.filteri (fun i _ -> i < 3) refs in
  expect_invalid "duplicate parent author"
    (Validation.validate_proposal ~committee ~verify_signatures:true
       (make_node ~round:1 ~author:0 ~parents:dup ()))

let test_validation_weak_parent_rules () =
  let r0 = full_round ~round:0 ~parents:[] () in
  let r1 = full_round ~round:1 ~parents:(refs_of r0) () in
  let valid_weak = [ List.hd (refs_of r0) ] in
  expect_valid "weak from older round"
    (Validation.validate_proposal ~committee ~verify_signatures:true
       (make_node ~round:2 ~author:0 ~parents:(refs_of r1) ~weak_parents:valid_weak ()));
  expect_invalid "weak from previous round"
    (Validation.validate_proposal ~committee ~verify_signatures:true
       (make_node ~round:2 ~author:0 ~parents:(refs_of r1) ~weak_parents:[ List.hd (refs_of r1) ] ()));
  expect_invalid "duplicate weak parent"
    (Validation.validate_proposal ~committee ~verify_signatures:true
       (make_node ~round:2 ~author:0 ~parents:(refs_of r1)
          ~weak_parents:[ List.hd (refs_of r0); List.hd (refs_of r0) ] ()))

let test_validation_duplicate_errors () =
  (* The first failing check names the error, whatever follows it. *)
  let r0 = full_round ~round:0 ~parents:[] () in
  let r1 = full_round ~round:1 ~parents:(refs_of r0) () in
  let expect label want ~parents ~weak =
    Alcotest.check
      Alcotest.(result unit string)
      label (Error want)
      (Validation.validate_proposal ~committee ~verify_signatures:true
         (make_node ~round:2 ~author:0 ~parents ~weak_parents:weak ()))
  in
  let p0 = List.hd (refs_of r1) and w0 = List.hd (refs_of r0) in
  let bad_author = { p0 with Types.ref_author = 99 } in
  expect "duplicate parent" "duplicate parent author" ~parents:(p0 :: refs_of r1) ~weak:[];
  expect "invalid author before duplicate" "parent author 99 invalid"
    ~parents:(bad_author :: p0 :: refs_of r1) ~weak:[];
  expect "duplicate weak" "duplicate weak parent" ~parents:(refs_of r1) ~weak:[ w0; w0 ];
  expect "bad round before duplicate weak" "weak parent from round 1, need < 1"
    ~parents:(refs_of r1) ~weak:[ w0; p0; w0 ]

let test_validation_signature () =
  let good = make_node ~round:0 ~author:0 ~parents:[] () in
  let forged = { good with Types.signature = Signer.sign (Committee.keypair committee 1) "x" } in
  expect_invalid "bad signature"
    (Validation.validate_proposal ~committee ~verify_signatures:true forged);
  expect_valid "verification disabled accepts"
    (Validation.validate_proposal ~committee ~verify_signatures:false forged)

let test_validation_digest_binding () =
  let good = make_node ~batch:(make_batch [ 1 ]) ~round:0 ~author:0 ~parents:[] () in
  let tampered = { good with Types.batch = make_batch [ 2 ] } in
  expect_invalid "tampered batch"
    (Validation.validate_proposal ~committee ~verify_signatures:false tampered)

let test_validation_author_range () =
  expect_invalid "author out of range"
    (Validation.validate_proposal ~committee ~verify_signatures:false
       (make_node ~committee:(Committee.make ~n:7 ~cluster_seed:77 ()) ~round:0 ~author:5
          ~parents:[] ()))

let test_validation_certificate_rules () =
  let node = make_node ~round:0 ~author:0 ~parents:[] () in
  let cn = certify node in
  expect_valid "good certificate"
    (Validation.validate_certified_node ~committee ~verify_signatures:true cn);
  (* Too few signers. *)
  let preimage = Types.vote_preimage ~round:0 ~author:0 ~digest:node.Types.digest in
  let weak_cert =
    {
      Types.cert_ref = Types.ref_of_node node;
      multisig =
        Multisig.aggregate ~n:4
          (List.init 2 (fun i -> (i, Signer.sign (Committee.keypair committee i) preimage)));
    }
  in
  expect_invalid "sub-quorum certificate"
    (Validation.validate_certificate ~committee ~verify_signatures:true weak_cert);
  (* Signatures over the wrong digest. *)
  let wrong_preimage = Types.vote_preimage ~round:0 ~author:0 ~digest:Digest32.zero in
  let forged =
    {
      Types.cert_ref = Types.ref_of_node node;
      multisig =
        Multisig.aggregate ~n:4
          (List.init 3 (fun i -> (i, Signer.sign (Committee.keypair committee i) wrong_preimage)));
    }
  in
  expect_invalid "forged multisig"
    (Validation.validate_certificate ~committee ~verify_signatures:true forged);
  (* Certificate for a different node. *)
  let other = make_node ~round:0 ~author:1 ~parents:[] () in
  expect_invalid "mismatched node"
    (Validation.validate_certified_node ~committee ~verify_signatures:true
       { Types.cn_node = other; cn_cert = cn.Types.cn_cert })

(* A certificate may only name committee members: one real signer plus ids
   5 and 6 (validly signed under the cluster seed, aggregated into a bitmap
   sized 8) meets the n=4 quorum of 3 by count alone. Both the bitmap-size
   rule and the multisig check must refuse it. *)
let test_validation_certificate_foreign_signers () =
  let node = make_node ~round:0 ~author:0 ~parents:[] () in
  let preimage = Types.vote_preimage ~round:0 ~author:0 ~digest:node.Types.digest in
  let outsider r =
    (r, Signer.sign (Signer.keygen ~cluster_seed:committee.Committee.cluster_seed ~replica:r) preimage)
  in
  let cert =
    {
      Types.cert_ref = Types.ref_of_node node;
      multisig =
        Multisig.aggregate ~n:8
          [ (0, Signer.sign (Committee.keypair committee 0) preimage); outsider 5; outsider 6 ];
    }
  in
  expect_invalid "foreign signers, signatures checked"
    (Validation.validate_certificate ~committee ~verify_signatures:true cert);
  expect_invalid "foreign signers, signatures trusted"
    (Validation.validate_certificate ~committee ~verify_signatures:false cert);
  checkb "multisig refuses an 8-wide bitmap on a 4-key registry" false
    (Multisig.verify committee.Committee.keys cert.Types.multisig preimage);
  checkb "verify-pool check refuses it" false
    (Validation.signatures_ok ~committee (Types.Certificate cert))

(* Every rejection names its rule: the message of each check, pinned. *)
let test_validation_rejection_messages () =
  let r0 = full_round ~round:0 ~parents:[] () in
  let r1 = full_round ~round:1 ~parents:(refs_of r0) () in
  let p0 = List.hd (refs_of r1) and w0 = List.hd (refs_of r0) in
  let expect want got = Alcotest.(check (result unit string)) want (Error want) got in
  let proposal ?(verify = true) node =
    Validation.validate_proposal ~committee ~verify_signatures:verify node
  in
  let node ?weak_parents ~round parents = make_node ?weak_parents ~round ~author:0 ~parents () in
  expect "author out of range"
    (proposal
       (make_node ~committee:(Committee.make ~n:7 ~cluster_seed:77 ()) ~round:0 ~author:5
          ~parents:[] ()));
  expect "negative round" (proposal { (node ~round:0 []) with Types.round = -1 });
  expect "round-0 node must have no parents" (proposal (node ~round:0 [ w0 ]));
  expect "node has 2 parents, need >= 3" (proposal (node ~round:2 [ p0; p0 ]));
  expect "parent from round 0, expected 1" (proposal (node ~round:2 (refs_of r0)));
  expect "parent author 99 invalid"
    (proposal (node ~round:2 ({ p0 with Types.ref_author = 99 } :: refs_of r1)));
  expect "duplicate parent author" (proposal (node ~round:2 (p0 :: refs_of r1)));
  let many = List.init (Types.max_weak_parents + 1) (fun _ -> w0) in
  expect
    (Printf.sprintf "%d weak parents, cap is %d" (Types.max_weak_parents + 1)
       Types.max_weak_parents)
    (proposal (node ~weak_parents:many ~round:2 (refs_of r1)));
  expect "weak parent from round 1, need < 1"
    (proposal (node ~weak_parents:[ p0 ] ~round:2 (refs_of r1)));
  expect "weak parent author invalid"
    (proposal (node ~weak_parents:[ { w0 with Types.ref_author = 4 } ] ~round:2 (refs_of r1)));
  expect "duplicate weak parent" (proposal (node ~weak_parents:[ w0; w0 ] ~round:2 (refs_of r1)));
  let good = node ~round:0 [] in
  expect "digest mismatch" (proposal ~verify:false { good with Types.batch = make_batch [ 7 ] });
  expect "bad author signature"
    (proposal { good with Types.signature = Signer.sign (Committee.keypair committee 1) "x" });
  let vote =
    {
      Types.vote_round = 0;
      vote_author = 0;
      vote_digest = good.Types.digest;
      voter = 1;
      vote_signature = Signer.sign (Committee.keypair committee 1) "x";
    }
  in
  let validate_vote v = Validation.validate_vote ~committee ~verify_signatures:true v in
  expect "voter out of range" (validate_vote { vote with Types.voter = 4 });
  expect "vote author out of range" (validate_vote { vote with Types.vote_author = -1 });
  expect "bad vote signature" (validate_vote vote);
  let cn = certify good in
  let cert = cn.Types.cn_cert in
  let preimage = Types.vote_preimage ~round:0 ~author:0 ~digest:good.Types.digest in
  let signed ~n ids =
    Multisig.aggregate ~n
      (List.map (fun i -> (i, Signer.sign (Committee.keypair committee i) preimage)) ids)
  in
  let validate_cert c = Validation.validate_certificate ~committee ~verify_signatures:true c in
  expect "certificate bitmap sized 5, committee has 4"
    (validate_cert { cert with Types.multisig = signed ~n:5 [ 0; 1; 2 ] });
  expect "certificate has 2 signers, need >= 3"
    (validate_cert { cert with Types.multisig = signed ~n:4 [ 0; 1 ] });
  expect "certified author out of range"
    (validate_cert
       { cert with Types.cert_ref = { cert.Types.cert_ref with Types.ref_author = 4 } });
  expect "bad certificate multisig"
    (validate_cert
       { cert with Types.cert_ref = { cert.Types.cert_ref with Types.ref_digest = Digest32.zero } });
  expect "certificate does not match node"
    (Validation.validate_certified_node ~committee ~verify_signatures:true
       { cn with Types.cn_node = make_node ~round:0 ~author:1 ~parents:[] () })

(* ------------------------------------------------------------------ *)
(* Store *)

let fresh_store () = Store.create ~n:4 ~genesis_digest:committee.Committee.genesis

let test_store_insert_and_get () =
  let s = fresh_store () in
  let r0 = full_round ~round:0 ~parents:[] () in
  List.iter (fun cn -> checkb "inserted" true (Store.add_certified s cn)) r0;
  checkb "duplicate rejected" false (Store.add_certified s (List.hd r0));
  checki "count" 4 (Store.count_at s ~round:0);
  checki "highest" 0 (Store.highest_round s);
  checkb "get" true (Option.is_some (Store.get s ~round:0 ~author:2));
  checkb "get missing" true (Option.is_none (Store.get s ~round:1 ~author:0));
  let r = Types.ref_of_node (List.hd r0).Types.cn_node in
  checkb "get_by_ref" true (Option.is_some (Store.get_by_ref s r));
  checkb "get_by_ref digest check" true
    (Option.is_none (Store.get_by_ref s { r with Types.ref_digest = Digest32.zero }))

let test_store_counters () =
  let s = fresh_store () in
  let r0 = full_round ~round:0 ~parents:[] () in
  List.iter (fun cn -> ignore (Store.add_certified s cn)) r0;
  (* Three round-1 nodes reference all of round 0; one references only a
     quorum that excludes author 3. *)
  let all_refs = refs_of r0 in
  let partial = List.filteri (fun i _ -> i < 3) all_refs in
  let r1a = certify (make_node ~round:1 ~author:0 ~parents:all_refs ()) in
  let r1b = certify (make_node ~round:1 ~author:1 ~parents:all_refs ()) in
  let r1c = certify (make_node ~round:1 ~author:2 ~parents:partial ()) in
  (* Proposals noted (weak votes) but only two certified. *)
  List.iter (fun cn -> ignore (Store.note_proposal s cn.Types.cn_node)) [ r1a; r1b; r1c ];
  ignore (Store.add_certified s r1a);
  ignore (Store.add_certified s r1b);
  checki "weak votes for (0,0)" 3 (Store.weak_votes s ~round:0 ~author:0);
  checki "weak votes for (0,3)" 2 (Store.weak_votes s ~round:0 ~author:3);
  checki "cert refs for (0,0)" 2 (Store.certified_refs s ~round:0 ~author:0);
  checki "cert refs for (0,3)" 2 (Store.certified_refs s ~round:0 ~author:3);
  (* Re-noting the same author's proposal must not double count. *)
  checkb "first proposal only" false (Store.note_proposal s r1a.Types.cn_node);
  checki "unchanged" 3 (Store.weak_votes s ~round:0 ~author:0)

let test_store_causal_history_order () =
  let s = fresh_store () in
  let r0 = full_round ~round:0 ~parents:[] () in
  List.iter (fun cn -> ignore (Store.add_certified s cn)) r0;
  let r1 = full_round ~round:1 ~parents:(refs_of r0) () in
  List.iter (fun cn -> ignore (Store.add_certified s cn)) r1;
  let anchor = Types.ref_of_node (List.nth r1 2).Types.cn_node in
  match Store.causal_history s anchor ~skip:(fun _ -> false) with
  | Error _ -> Alcotest.fail "history should be complete"
  | Ok nodes ->
    checki "4 ancestors + anchor" 5 (List.length nodes);
    let positions =
      List.map (fun cn -> (cn.Types.cn_node.Types.round, cn.Types.cn_node.Types.author)) nodes
    in
    Alcotest.(check (list (pair int int)))
      "deterministic (round, author) order"
      [ (0, 0); (0, 1); (0, 2); (0, 3); (1, 2) ]
      positions

let test_store_causal_history_skip () =
  let s = fresh_store () in
  let r0 = full_round ~round:0 ~parents:[] () in
  List.iter (fun cn -> ignore (Store.add_certified s cn)) r0;
  let r1 = full_round ~round:1 ~parents:(refs_of r0) () in
  List.iter (fun cn -> ignore (Store.add_certified s cn)) r1;
  let anchor = Types.ref_of_node (List.hd r1).Types.cn_node in
  (* Skip everything from round 0: only the anchor remains. *)
  match Store.causal_history s anchor ~skip:(fun r -> r.Types.ref_round = 0) with
  | Ok [ only ] -> checki "anchor only" 1 only.Types.cn_node.Types.round
  | Ok l -> Alcotest.failf "expected 1 node, got %d" (List.length l)
  | Error _ -> Alcotest.fail "unexpected missing"

let test_store_causal_history_missing () =
  let s = fresh_store () in
  let r0 = full_round ~round:0 ~parents:[] () in
  (* Insert only 3 of 4 round-0 nodes; the round-1 node references all 4. *)
  List.iteri (fun i cn -> if i < 3 then ignore (Store.add_certified s cn)) r0;
  let r1n = certify (make_node ~round:1 ~author:0 ~parents:(refs_of r0) ()) in
  ignore (Store.add_certified s r1n);
  match Store.causal_history s (Types.ref_of_node r1n.Types.cn_node) ~skip:(fun _ -> false) with
  | Error [ missing ] ->
    checki "missing author" 3 missing.Types.ref_author;
    checki "missing round" 0 missing.Types.ref_round
  | Error l -> Alcotest.failf "expected 1 missing, got %d" (List.length l)
  | Ok _ -> Alcotest.fail "should report missing ancestor"

let test_store_weak_edges_traversed () =
  let s = fresh_store () in
  let r0 = full_round ~round:0 ~parents:[] () in
  List.iter (fun cn -> ignore (Store.add_certified s cn)) r0;
  (* Round 1 references only authors 0-2; author 3's round-0 node is
     orphaned. A round-2 node rescues it via a weak edge. *)
  let partial = List.filteri (fun i _ -> i < 3) (refs_of r0) in
  let orphan_ref = List.nth (refs_of r0) 3 in
  let r1 = full_round ~round:1 ~parents:partial () in
  List.iter (fun cn -> ignore (Store.add_certified s cn)) r1;
  let rescuer =
    certify (make_node ~round:2 ~author:0 ~parents:(refs_of r1) ~weak_parents:[ orphan_ref ] ())
  in
  ignore (Store.add_certified s rescuer);
  let anchor = Types.ref_of_node rescuer.Types.cn_node in
  (match Store.causal_history s anchor ~skip:(fun _ -> false) with
  | Ok nodes ->
    checkb "orphan included via weak edge" true
      (List.exists
         (fun cn -> cn.Types.cn_node.Types.round = 0 && cn.Types.cn_node.Types.author = 3)
         nodes)
  | Error _ -> Alcotest.fail "unexpected missing");
  checkb "is_ancestor via weak edge" true (Store.is_ancestor s ~ancestor:orphan_ref ~of_:anchor);
  checkb "position_ancestor via weak edge" true
    (Store.position_ancestor s ~round:0 ~author:3 ~of_:anchor);
  (* Weak edges must NOT count as commit votes. *)
  checki "no cert ref from weak edge" 0 (Store.certified_refs s ~round:0 ~author:3)

let test_store_ancestor_queries () =
  let s = fresh_store () in
  let r0 = full_round ~round:0 ~parents:[] () in
  List.iter (fun cn -> ignore (Store.add_certified s cn)) r0;
  let r1 = full_round ~round:1 ~parents:(refs_of r0) () in
  List.iter (fun cn -> ignore (Store.add_certified s cn)) r1;
  let a = Types.ref_of_node (List.hd r0).Types.cn_node in
  let b = Types.ref_of_node (List.hd r1).Types.cn_node in
  checkb "ancestor" true (Store.is_ancestor s ~ancestor:a ~of_:b);
  checkb "not descendant" false (Store.is_ancestor s ~ancestor:b ~of_:a);
  checkb "reflexive" true (Store.is_ancestor s ~ancestor:a ~of_:a);
  checkb "position ancestor" true (Store.position_ancestor s ~round:0 ~author:0 ~of_:b);
  checkb "position non-ancestor same round" false
    (Store.position_ancestor s ~round:1 ~author:1 ~of_:b)

let test_store_prune () =
  let s = fresh_store () in
  let r0 = full_round ~round:0 ~parents:[] () in
  List.iter (fun cn -> ignore (Store.add_certified s cn)) r0;
  let r1 = full_round ~round:1 ~parents:(refs_of r0) () in
  List.iter (fun cn -> ignore (Store.add_certified s cn)) r1;
  checki "dropped" 4 (Store.prune_below s ~round:1);
  checki "lowest" 1 (Store.lowest_retained s);
  checki "round 0 gone" 0 (Store.count_at s ~round:0);
  checki "round 1 kept" 4 (Store.count_at s ~round:1);
  (* Causal traversal no longer reports pruned ancestors as missing. *)
  match
    Store.causal_history s (Types.ref_of_node (List.hd r1).Types.cn_node) ~skip:(fun _ -> false)
  with
  | Ok nodes -> checki "cut at GC horizon" 1 (List.length nodes)
  | Error _ -> Alcotest.fail "pruned refs must not count as missing"

let prop_store_counters_match_naive =
  QCheck.Test.make ~name:"certified_refs matches naive count" ~count:50
    QCheck.(list_of_size Gen.(1 -- 4) (int_bound 3))
    (fun authors ->
      let authors = List.sort_uniq compare authors in
      let s = fresh_store () in
      let r0 = full_round ~round:0 ~parents:[] () in
      List.iter (fun cn -> ignore (Store.add_certified s cn)) r0;
      (* Certify round-1 nodes only for [authors], each referencing all. *)
      let r1 = full_round ~round:1 ~parents:(refs_of r0) ~authors () in
      List.iter (fun cn -> ignore (Store.add_certified s cn)) r1;
      List.for_all
        (fun a -> Store.certified_refs s ~round:0 ~author:a = List.length authors)
        [ 0; 1; 2; 3 ])

let prop_vote_preimage_matches_sprintf =
  QCheck.Test.make ~name:"vote preimage equals the sprintf form" ~count:200
    QCheck.(triple int int string)
    (fun (round, author, s) ->
      let digest = Digest32.of_string s in
      String.equal
        (Types.vote_preimage ~round ~author ~digest)
        (Printf.sprintf "vote/%d/%d/%s" round author (Digest32.raw digest)))

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "dag.committee",
      [
        Alcotest.test_case "quorums" `Quick test_committee_quorums;
        Alcotest.test_case "genesis per seed" `Quick test_committee_genesis_depends_on_seed;
      ] );
    ( "dag.types",
      [
        Alcotest.test_case "digest binds fields" `Quick test_node_digest_binds_fields;
        Alcotest.test_case "weak parents in digest" `Quick test_weak_parents_in_digest;
        Alcotest.test_case "proposal roundtrip" `Quick test_encode_decode_proposal;
        Alcotest.test_case "vote/cert roundtrip" `Quick test_encode_decode_vote_and_cert;
        Alcotest.test_case "garbage rejected" `Quick test_decode_garbage;
        Alcotest.test_case "message sizes" `Quick test_message_sizes_scale;
      ]
      @ qsuite [ prop_vote_preimage_matches_sprintf ] );
    ( "dag.validation",
      [
        Alcotest.test_case "round 0" `Quick test_validation_round0;
        Alcotest.test_case "parent rules" `Quick test_validation_parent_rules;
        Alcotest.test_case "weak parent rules" `Quick test_validation_weak_parent_rules;
        Alcotest.test_case "duplicate errors" `Quick test_validation_duplicate_errors;
        Alcotest.test_case "rejection messages" `Quick test_validation_rejection_messages;
        Alcotest.test_case "signature" `Quick test_validation_signature;
        Alcotest.test_case "digest binding" `Quick test_validation_digest_binding;
        Alcotest.test_case "author range" `Quick test_validation_author_range;
        Alcotest.test_case "certificate rules" `Quick test_validation_certificate_rules;
        Alcotest.test_case "certificate foreign signers" `Quick
          test_validation_certificate_foreign_signers;
      ] );
    ( "dag.store",
      [
        Alcotest.test_case "insert and get" `Quick test_store_insert_and_get;
        Alcotest.test_case "counters" `Quick test_store_counters;
        Alcotest.test_case "causal history order" `Quick test_store_causal_history_order;
        Alcotest.test_case "causal history skip" `Quick test_store_causal_history_skip;
        Alcotest.test_case "causal history missing" `Quick test_store_causal_history_missing;
        Alcotest.test_case "weak edges traversed" `Quick test_store_weak_edges_traversed;
        Alcotest.test_case "ancestor queries" `Quick test_store_ancestor_queries;
        Alcotest.test_case "prune" `Quick test_store_prune;
      ]
      @ qsuite [ prop_store_counters_match_naive ] );
  ]
