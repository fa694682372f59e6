(* Tests for the certified-DAG layer: types and wire encoding, validation
   rules and the memo of verified values behind them, the DAG store
   (counters, causal traversal, weak edges, GC), and the committee
   configuration. *)

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

let make_node ?(committee = committee) ?(lane = 0) ?(batch = make_batch []) ?(weak_parents = [])
    ~round ~author ~parents () =
  let digest =
    Types.node_digest ~lane ~round ~author ~batch_digest:batch.Batch.digest ~parents ~weak_parents
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

let certify ?(committee = committee) ?(lane = 0) (node : Types.node) =
  let preimage =
    Types.vote_preimage ~lane ~round:node.Types.round ~author:node.Types.author
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
  match Types.decode_message ~lane:0 (Types.encode_message msg) with
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
    (match Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:true n with
    | Ok () -> ()
    | Error e -> Alcotest.failf "decoded node invalid: %s" e)
  | _ -> Alcotest.fail "wrong message kind"

let test_encode_decode_vote_and_cert () =
  let node = make_node ~round:0 ~author:1 ~parents:[] () in
  let preimage =
    Types.vote_preimage ~lane:0 ~round:0 ~author:1 ~digest:node.Types.digest
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
    (match Validation.validate_vote ~lane:0 ~committee ~verify_signatures:true v with
    | Ok () -> ()
    | Error e -> Alcotest.failf "decoded vote invalid: %s" e)
  | _ -> Alcotest.fail "wrong kind");
  let cn = certify node in
  match roundtrip (Types.Certificate cn.Types.cn_cert) with
  | Types.Certificate c -> (
    checki "signers" 3 (Multisig.num_signers c.Types.multisig);
    match Validation.validate_certificate ~lane:0 ~committee ~verify_signatures:true c with
    | Ok () -> ()
    | Error e -> Alcotest.failf "decoded cert invalid: %s" e)
  | _ -> Alcotest.fail "wrong kind"

let test_decode_garbage () =
  checkb "garbage rejected" true
    (match Types.decode_message ~lane:0 "\x09not-a-message" with
    | Error _ -> true
    | Ok _ -> false);
  checkb "empty rejected" true
    (match Types.decode_message ~lane:0 "" with Error _ -> true | Ok _ -> false)

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
    (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:true
       (make_node ~round:0 ~author:0 ~parents:[] ()));
  let r0 = full_round ~round:0 ~parents:[] () in
  expect_invalid "round 0 with parents"
    (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:true
       (make_node ~round:0 ~author:0 ~parents:[ List.hd (refs_of r0) ] ()))

let test_validation_parent_rules () =
  let r0 = full_round ~round:0 ~parents:[] () in
  let refs = refs_of r0 in
  expect_valid "quorum parents"
    (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:true
       (make_node ~round:1 ~author:0 ~parents:(List.filteri (fun i _ -> i < 3) refs) ()));
  expect_invalid "too few parents"
    (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:true
       (make_node ~round:1 ~author:0 ~parents:(List.filteri (fun i _ -> i < 2) refs) ()));
  expect_invalid "wrong parent round"
    (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:true
       (make_node ~round:2 ~author:0 ~parents:refs ()));
  let dup = List.hd refs :: List.filteri (fun i _ -> i < 3) refs in
  expect_invalid "duplicate parent author"
    (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:true
       (make_node ~round:1 ~author:0 ~parents:dup ()))

let test_validation_weak_parent_rules () =
  let r0 = full_round ~round:0 ~parents:[] () in
  let r1 = full_round ~round:1 ~parents:(refs_of r0) () in
  let valid_weak = [ List.hd (refs_of r0) ] in
  expect_valid "weak from older round"
    (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:true
       (make_node ~round:2 ~author:0 ~parents:(refs_of r1) ~weak_parents:valid_weak ()));
  expect_invalid "weak from previous round"
    (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:true
       (make_node ~round:2 ~author:0 ~parents:(refs_of r1) ~weak_parents:[ List.hd (refs_of r1) ] ()));
  expect_invalid "duplicate weak parent"
    (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:true
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
      (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:true
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
    (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:true forged);
  expect_valid "verification disabled accepts"
    (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:false forged)

let test_validation_digest_binding () =
  let good = make_node ~batch:(make_batch [ 1 ]) ~round:0 ~author:0 ~parents:[] () in
  let tampered = { good with Types.batch = make_batch [ 2 ] } in
  expect_invalid "tampered batch"
    (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:false tampered)

let test_validation_author_range () =
  expect_invalid "author out of range"
    (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:false
       (make_node ~committee:(Committee.make ~n:7 ~cluster_seed:77 ()) ~round:0 ~author:5
          ~parents:[] ()))

let test_validation_certificate_rules () =
  let node = make_node ~round:0 ~author:0 ~parents:[] () in
  let cn = certify node in
  expect_valid "good certificate"
    (Validation.validate_certified_node ~lane:0 ~committee ~verify_signatures:true cn);
  (* Too few signers. *)
  let preimage = Types.vote_preimage ~lane:0 ~round:0 ~author:0 ~digest:node.Types.digest in
  let weak_cert =
    {
      Types.cert_ref = Types.ref_of_node node;
      multisig =
        Multisig.aggregate ~n:4
          (List.init 2 (fun i -> (i, Signer.sign (Committee.keypair committee i) preimage)));
    }
  in
  expect_invalid "sub-quorum certificate"
    (Validation.validate_certificate ~lane:0 ~committee ~verify_signatures:true weak_cert);
  (* Signatures over the wrong digest. *)
  let wrong_preimage = Types.vote_preimage ~lane:0 ~round:0 ~author:0 ~digest:Digest32.zero in
  let forged =
    {
      Types.cert_ref = Types.ref_of_node node;
      multisig =
        Multisig.aggregate ~n:4
          (List.init 3 (fun i -> (i, Signer.sign (Committee.keypair committee i) wrong_preimage)));
    }
  in
  expect_invalid "forged multisig"
    (Validation.validate_certificate ~lane:0 ~committee ~verify_signatures:true forged);
  (* Certificate for a different node. *)
  let other = make_node ~round:0 ~author:1 ~parents:[] () in
  expect_invalid "mismatched node"
    (Validation.validate_certified_node ~lane:0 ~committee ~verify_signatures:true
       { Types.cn_node = other; cn_cert = cn.Types.cn_cert })

(* A certificate may only name committee members: one real signer plus ids
   5 and 6 (validly signed under the cluster seed, aggregated into a bitmap
   sized 8) meets the n=4 quorum of 3 by count alone. Both the bitmap-size
   rule and the multisig check must refuse it. *)
let test_validation_certificate_foreign_signers () =
  let node = make_node ~round:0 ~author:0 ~parents:[] () in
  let preimage = Types.vote_preimage ~lane:0 ~round:0 ~author:0 ~digest:node.Types.digest in
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
    (Validation.validate_certificate ~lane:0 ~committee ~verify_signatures:true cert);
  expect_invalid "foreign signers, signatures trusted"
    (Validation.validate_certificate ~lane:0 ~committee ~verify_signatures:false cert);
  checkb "multisig refuses an 8-wide bitmap on a 4-key registry" false
    (Multisig.verify committee.Committee.keys cert.Types.multisig preimage);
  checkb "verify-pool check refuses it" false
    (Validation.signatures_ok ~committee (Types.Certificate cert))

(* A value of one DAG lane is refused in another. The lanes' round-0
   nodes with empty batches are otherwise identical, so unless the digest
   and the vote preimage bind the lane, a lane-0 proposal, the votes on it
   and its certificate all pass in lane 1. Replica 0's lane-1 instance is
   driven by hand. *)
(* One instance on an engine that never runs: what it sends is kept,
   newest first, and its votes leave at once. *)
let lone_instance ?(dag_id = 0) ~replica () =
  let module Instance = Shoalpp_dag.Instance in
  let module Engine = Shoalpp_sim.Engine in
  let engine = Engine.create () in
  let store = Store.create ~n:4 ~genesis_digest:committee.Committee.genesis in
  let sent = ref [] in
  let callbacks =
    {
      Instance.broadcast = (fun m -> sent := m :: !sent);
      send = (fun ~dst:_ m -> sent := m :: !sent);
      now = (fun () -> Engine.now engine);
      schedule =
        (Shoalpp_backend.Backend_sim.timers engine).Shoalpp_backend.Backend.Timers.schedule;
      pull_batch = (fun ~max:_ -> []);
      anchors_of_round = (fun _ -> []);
      persist = (fun _ k -> k ());
      on_proposal_noted = ignore;
      on_certified = ignore;
      on_cert_meta = ignore;
      earliest = (fun ~round:_ ~ready:_ -> neg_infinity);
      entered = (fun ~round:_ ~held:_ -> ());
    }
  in
  let cfg = { (Instance.default_config ~committee ~replica) with Instance.dag_id } in
  (Instance.create cfg callbacks ~store, store, sent)

let test_validation_lane_replay_refused () =
  let module Instance = Shoalpp_dag.Instance in
  let lane0 = make_node ~round:0 ~author:0 ~parents:[] () in
  let proposal ~lane node =
    Validation.validate_proposal ~lane ~committee ~verify_signatures:true node
  in
  checkb "a proposal passes in its own lane" true (Result.is_ok (proposal ~lane:0 lane0));
  expect_invalid "a lane-0 proposal in lane 1" (proposal ~lane:1 lane0);
  expect_invalid "a lane-0 certified node in lane 1"
    (Validation.validate_certified_node ~lane:1 ~committee ~verify_signatures:true (certify lane0));
  let inst, store, sent = lone_instance ~dag_id:1 ~replica:0 () in
  Instance.start inst;
  let own =
    match !sent with [ Types.Proposal node ] -> node | _ -> Alcotest.fail "one round-0 proposal"
  in
  Instance.handle_message inst ~src:0 (Types.Proposal own);
  checkb "the lanes' round-0 twins differ" false
    (Digest32.equal own.Types.digest lane0.Types.digest);
  let vote_for ~lane (node : Types.node) voter =
    let preimage = Types.vote_preimage ~lane ~round:0 ~author:0 ~digest:node.Types.digest in
    Types.Vote
      {
        Types.vote_round = 0;
        vote_author = 0;
        vote_digest = node.Types.digest;
        voter;
        vote_signature = Signer.sign (Committee.keypair committee voter) preimage;
      }
  in
  let refused = Instance.invalid_dropped inst in
  List.iter (fun v -> Instance.handle_message inst ~src:v (vote_for ~lane:0 lane0 v)) [ 1; 2; 3 ];
  checki "lane-0 votes certify nothing in lane 1" 0 (Instance.certs_formed inst);
  checki "lane-0 votes are refused in lane 1" (refused + 3) (Instance.invalid_dropped inst);
  List.iter (fun v -> Instance.handle_message inst ~src:v (vote_for ~lane:1 own v)) [ 1; 2; 3 ];
  checki "its own lane's votes do" 1 (Instance.certs_formed inst);
  (* Author 1's lane-1 proposal arrives, then the certificate of its
     lane-0 twin: its multisig fails in lane 1, so the position stays
     open for its own lane's certificate. *)
  Instance.handle_message inst ~src:1
    (Types.Proposal (make_node ~lane:1 ~round:0 ~author:1 ~parents:[] ()));
  let cn1 = certify (make_node ~round:0 ~author:1 ~parents:[] ()) in
  let refused = Instance.invalid_dropped inst in
  Instance.handle_message inst ~src:1 (Types.Certificate cn1.Types.cn_cert);
  checki "a lane-0 certificate is refused" (refused + 1) (Instance.invalid_dropped inst);
  checkb "its position stays unknown" false (Instance.cert_known inst ~round:0 ~author:1);
  checkb "a lane-0 certificate stores no lane-1 node" true
    (Option.is_none (Store.get store ~round:0 ~author:1));
  Instance.handle_message inst ~src:1 (Types.Fetch_response cn1);
  checki "a lane-0 fetch response is refused" (refused + 2) (Instance.invalid_dropped inst);
  let cn1' = certify ~lane:1 (make_node ~lane:1 ~round:0 ~author:1 ~parents:[] ()) in
  Instance.handle_message inst ~src:1 (Types.Certificate cn1'.Types.cn_cert);
  checkb "the position's own certificate is taken" true
    (Instance.cert_known inst ~round:0 ~author:1)

(* A received node's parents are swapped for the lane's own refs only when
   equal. A parent naming a certified position under another digest stays
   as received; a proposal tampered after signing is refused as before. *)
let test_forged_parent_kept () =
  let module Instance = Shoalpp_dag.Instance in
  let decoded msg =
    match Types.decode_message ~lane:0 (Types.encode_message msg) with
    | Ok m -> m
    | Error e -> Alcotest.fail e
  in
  let inst, store, _ = lone_instance ~replica:3 () in
  let r0 = full_round ~round:0 ~parents:[] () in
  List.iter
    (fun cn ->
      Instance.handle_message inst ~src:cn.Types.cn_node.Types.author
        (decoded (Types.Certificate cn.Types.cn_cert)))
    r0;
  let forged = Digest32.of_string "not the certified node" in
  let parents =
    List.map
      (fun (p : Types.node_ref) ->
        if p.Types.ref_author = 1 then { p with Types.ref_digest = forged } else p)
      (refs_of r0)
  in
  let node = make_node ~round:1 ~author:0 ~parents () in
  let refused = Instance.invalid_dropped inst in
  Instance.handle_message inst ~src:0 (decoded (Types.Proposal node));
  checki "a signed proposal naming a forged parent is taken" refused
    (Instance.invalid_dropped inst);
  let stored =
    match Store.proposal store (Types.ref_of_node node) with
    | Some stored -> stored
    | None -> Alcotest.fail "the proposal is stored"
  in
  List.iter
    (fun (p : Types.node_ref) ->
      let own = Instance.cert_ref_at inst ~round:0 ~author:p.Types.ref_author in
      if p.Types.ref_author = 1 then begin
        checkb "the forged parent is not the lane's" false
          (match own with Some m -> m == p | None -> true);
        checkb "the forged parent keeps its digest" true (Digest32.equal p.Types.ref_digest forged)
      end
      else
        checkb "an equal parent is the lane's" true
          (match own with Some m -> m == p | None -> false))
    stored.Types.parents;
  let honest = make_node ~round:1 ~author:2 ~parents:(refs_of r0) () in
  let tampered = { honest with Types.parents = parents } in
  Alcotest.(check (result unit string))
    "the tampered proposal fails its binding" (Error "digest mismatch")
    (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:true tampered);
  Instance.handle_message inst ~src:2 (Types.Proposal tampered);
  checki "the tampered proposal is refused" (refused + 1) (Instance.invalid_dropped inst);
  checkb "and not stored" true (Option.is_none (Store.proposal store (Types.ref_of_node honest)))

(* Every rejection names its rule: the message of each check, pinned. *)
let test_validation_rejection_messages () =
  let r0 = full_round ~round:0 ~parents:[] () in
  let r1 = full_round ~round:1 ~parents:(refs_of r0) () in
  let p0 = List.hd (refs_of r1) and w0 = List.hd (refs_of r0) in
  let expect want got = Alcotest.(check (result unit string)) want (Error want) got in
  let proposal ?(verify = true) node =
    Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:verify node
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
  let validate_vote v = Validation.validate_vote ~lane:0 ~committee ~verify_signatures:true v in
  expect "voter out of range" (validate_vote { vote with Types.voter = 4 });
  expect "vote author out of range" (validate_vote { vote with Types.vote_author = -1 });
  expect "bad vote signature" (validate_vote vote);
  let cn = certify good in
  let cert = cn.Types.cn_cert in
  let preimage = Types.vote_preimage ~lane:0 ~round:0 ~author:0 ~digest:good.Types.digest in
  let signed ~n ids =
    Multisig.aggregate ~n
      (List.map (fun i -> (i, Signer.sign (Committee.keypair committee i) preimage)) ids)
  in
  let validate_cert c = Validation.validate_certificate ~lane:0 ~committee ~verify_signatures:true c in
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
    (Validation.validate_certified_node ~lane:0 ~committee ~verify_signatures:true
       { cn with Types.cn_node = make_node ~round:0 ~author:1 ~parents:[] () })

(* ------------------------------------------------------------------ *)
(* The memo of verified values behind the SHA-256/HMAC checks: a hit may
   only replay a verdict the full check gave for the very same value under
   the very same key registry, and in the simulator each broadcast is
   checked once, not once per receiver. *)

let ok = function Ok () -> true | Error _ -> false

let proposal ?(committee = committee) n =
  ok (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:true n)

let certificate ?(committee = committee) c =
  ok (Validation.validate_certificate ~lane:0 ~committee ~verify_signatures:true c)

let ck_vote ~voter digest =
  Types.Checkpoint_vote
    {
      ck_seq = 12;
      ck_digest = digest;
      ck_voter = voter;
      ck_signature =
        Signer.sign (Committee.keypair committee voter)
          (Shoalpp_storage.Checkpoint.preimage_of_digest digest);
    }

(* Calls [f] and returns how many hits and full checks of [check] it made
   on this domain's memo. *)
let counted check f =
  let h0, m0 = Validation.memo_counts check in
  f ();
  let h1, m1 = Validation.memo_counts check in
  (h1 - h0, m1 - m0)

(* Each twin keeps its honest original's digest, so it lands in the slot
   the original was just stored in: only a key on the whole record makes
   it miss and take the full check. *)
let test_memo_twins_refused_after_original () =
  let parents = refs_of (full_round ~round:0 ~parents:[] ()) in
  let node = make_node ~round:1 ~author:2 ~parents () in
  let cert = (certify node).Types.cn_cert in
  checkb "honest node" true (proposal node);
  checkb "honest certificate" true (certificate cert);
  checkb "honest pool check" true (Validation.signatures_ok ~committee (Types.Certificate cert));
  let other_author = { cert.Types.cert_ref with Types.ref_author = 3 } in
  let other_round = { cert.Types.cert_ref with Types.ref_round = 2 } in
  checkb "reused multisig, other author" false
    (certificate { cert with Types.cert_ref = other_author });
  checkb "reused multisig, other round" false
    (certificate { cert with Types.cert_ref = other_round });
  checkb "reused multisig, pool check" false
    (Validation.signatures_ok ~committee
       (Types.Certificate { cert with Types.cert_ref = other_author }));
  let resigned = Signer.sign (Committee.keypair committee 2) "another message" in
  checkb "other signature" false (proposal { node with Types.signature = resigned });
  checkb "other signature, pool check" false
    (Validation.signatures_ok ~committee
       (Types.Proposal { node with Types.signature = resigned }));
  (* Three of the four round-0 parents still meet the quorum, so only the
     digest binding can refuse this one; it reuses the honest signature. *)
  let fewer = { node with Types.parents = List.tl parents } in
  checkb "other parents, same digest" false (proposal fewer);
  checkb "other parents, unsigned mode" false
    (ok (Validation.validate_proposal ~lane:0 ~committee ~verify_signatures:false fewer));
  let vote = ck_vote ~voter:1 (Digest32.of_string "checkpoint") in
  checkb "honest checkpoint vote" true (Validation.signatures_ok ~committee vote);
  (match vote with
  | Types.Checkpoint_vote v ->
    let forged = Signer.sign (Committee.keypair committee 1) "another message" in
    checkb "checkpoint vote, other signature" false
      (Validation.signatures_ok ~committee
         (Types.Checkpoint_vote { v with ck_signature = forged }));
    checkb "checkpoint vote, other digest" false
      (Validation.signatures_ok ~committee
         (Types.Checkpoint_vote { v with ck_digest = Digest32.of_string "other" }))
  | _ -> assert false);
  checkb "originals still pass" true (proposal node && certificate cert)

(* The same physical values, checked under another registry of the same
   size: every signature check must refuse them. *)
let test_memo_registry_is_part_of_the_key () =
  let other = Committee.make ~n:4 ~cluster_seed:78 () in
  let node = make_node ~round:0 ~author:1 ~parents:[] () in
  let cert = (certify node).Types.cn_cert in
  let vote = ck_vote ~voter:2 (Digest32.of_string "ck") in
  checkb "node under A" true (proposal node);
  checkb "certificate under A" true (certificate cert);
  checkb "checkpoint vote under A" true (Validation.signatures_ok ~committee vote);
  checkb "node under B" false (proposal ~committee:other node);
  checkb "certificate under B" false (certificate ~committee:other cert);
  checkb "checkpoint vote under B" false (Validation.signatures_ok ~committee:other vote);
  checkb "pool check under B" false
    (Validation.signatures_ok ~committee:other
       (Types.Fetch_response { cn_node = node; cn_cert = cert }))

(* Two valid values that share a slot evict each other; each must still
   verify every time it comes back. Nodes whose digest hashes agree in
   their low 13 bits share a slot of the 8192-slot table; the counts below
   check that they really did. *)
let test_memo_colliding_values_both_verify () =
  let slot (n : Types.node) = Digest32.hash n.Types.digest land 8191 in
  let by_slot = Hashtbl.create 64 in
  let rec find tag =
    let n = make_node ~batch:(make_batch [ tag ]) ~round:0 ~author:0 ~parents:[] () in
    match Hashtbl.find_opt by_slot (slot n) with
    | Some m -> (m, n)
    | None ->
      Hashtbl.replace by_slot (slot n) n;
      find (tag + 1)
  in
  let a, b = find 1 in
  let hits, full =
    counted Validation.Binding (fun () ->
        for _ = 1 to 3 do
          checkb "a verifies" true (proposal a);
          checkb "b verifies" true (proposal b)
        done)
  in
  checki "no hits while alternating" 0 hits;
  checki "every check in full" 6 full

(* A refused value is not remembered: it is refused again, in full. *)
let test_memo_failures_not_memoized () =
  let node = make_node ~batch:(make_batch [ 1 ]) ~round:0 ~author:3 ~parents:[] () in
  let forged = { node with Types.signature = Signer.sign (Committee.keypair committee 0) "x" } in
  let hits, full =
    counted Validation.Proposal_signature (fun () ->
        checkb "refused once" false (proposal forged);
        checkb "refused twice" false (proposal forged))
  in
  checki "no hits" 0 hits;
  checki "two full checks" 2 full;
  let cert = (certify node).Types.cn_cert in
  let bad = { cert with Types.cert_ref = { cert.Types.cert_ref with Types.ref_round = 5 } } in
  checkb "certificate refused once" false (certificate bad);
  checkb "certificate refused twice" false (certificate bad);
  let tampered = { node with Types.batch = make_batch [ 2 ] } in
  checkb "binding refused once" false (proposal tampered);
  checkb "binding refused twice" false (proposal tampered)

(* The realtime node decodes a copy per receiver: none of them may hit. *)
let test_memo_decoded_copies_checked_in_full () =
  let module Replica = Shoalpp_core.Replica in
  let module Node = Shoalpp_runtime.Node in
  let cert = (certify (make_node ~round:0 ~author:1 ~parents:[] ())).Types.cn_cert in
  let wire = Node.encode_envelope { Replica.dag_id = 0; payload = Types.Certificate cert } in
  let decode () =
    match Node.decode_envelope ~cluster_seed:committee.Committee.cluster_seed wire with
    | Some { Replica.payload = Types.Certificate c; _ } -> c
    | _ -> Alcotest.fail "certificate does not round-trip"
  in
  let a = decode () and b = decode () in
  let hits, full =
    counted Validation.Certificate_multisig (fun () ->
        checkb "first copy" true (certificate a);
        checkb "second copy" true (certificate b))
  in
  checki "no hits" 0 hits;
  checki "both in full" 2 full

(* The saving itself: in a seeded n=16 run with signatures verified, each
   certificate broadcast is checked natively about once, while every
   receiver still validates its delivery. The allowance covers slot
   collisions and the few certificates that reach a replica again later
   (fetch responses): 5% of the certificates formed, plus 16. A
   certificate formed in the run's last few hundred ms may still be in
   flight when it stops, so the lower bounds count the certificates formed
   by 2 s, which gcp10's delays have delivered everywhere by 2.5 s. *)
let test_memo_one_native_check_per_certificate () =
  let module Cluster = Shoalpp_runtime.Cluster in
  let module Replica = Shoalpp_core.Replica in
  let committee = Committee.make ~n:16 ~cluster_seed:5 () in
  let setup =
    {
      (Cluster.default_setup ~protocol:(Shoalpp_core.Config.shoalpp ~committee)) with
      Cluster.topology = Shoalpp_sim.Topology.gcp10 ();
      load_tps = 1000.0;
      warmup_ms = 500.0;
      seed = 5;
    }
  in
  let cluster = Cluster.create setup in
  let formed () =
    Array.fold_left
      (fun acc r ->
        List.fold_left (fun acc (_, _, certs, _) -> acc + certs) acc (Replica.instance_stats r))
      0 (Cluster.replicas cluster)
  in
  let settled = ref 0 in
  let hits, full =
    counted Validation.Certificate_multisig (fun () ->
        Cluster.run cluster ~duration_ms:2_000.0;
        settled := formed ();
        Cluster.run cluster ~duration_ms:2_500.0)
  in
  let settled = !settled and formed = formed () in
  checkb "certificates formed" true (settled > 100);
  checkb
    (Printf.sprintf "%d native checks for %d certificates (%d by 2 s)" full formed settled)
    true
    (full >= settled && full <= formed + (formed / 20) + 16);
  checkb
    (Printf.sprintf "%d deliveries for %d certificates formed by 2 s" (hits + full) settled)
    true
    (hits + full >= 15 * settled)

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
  checki "dropped" 4 (fst (Store.prune_below s ~round:1));
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

(* The traversals as they were written before they marked visits with
   generation stamps: a fresh position-keyed table per call, and a sort of
   the collected nodes. Kept here as the reference the store must match. *)
module Reference_traversal = struct
  let key store (r : Types.node_ref) = (r.Types.ref_round * Store.n store) + r.Types.ref_author

  let causal_history store ~genesis root ~skip =
    let lowest = Store.lowest_retained store in
    let visited = Hashtbl.create 64 in
    let missing = ref [] in
    let collected = ref [] in
    let rec visit (r : Types.node_ref) =
      if r.Types.ref_round >= lowest && (not (Hashtbl.mem visited (key store r))) && not (skip r)
      then begin
        Hashtbl.replace visited (key store r) ();
        match Store.get_by_ref store r with
        | None -> if not (Digest32.equal r.Types.ref_digest genesis) then missing := r :: !missing
        | Some cn ->
          List.iter visit cn.Types.cn_node.Types.parents;
          List.iter visit cn.Types.cn_node.Types.weak_parents;
          collected := cn :: !collected
      end
    in
    visit root;
    if !missing <> [] then Error (List.sort_uniq Types.compare_ref !missing)
    else
      Ok
        (List.sort
           (fun (a : Types.certified_node) b ->
             let c = Int.compare a.Types.cn_node.Types.round b.Types.cn_node.Types.round in
             if c <> 0 then c
             else Int.compare a.Types.cn_node.Types.author b.Types.cn_node.Types.author)
           !collected)

  let search store ~floor ~hit of_ =
    let visited = Hashtbl.create 64 in
    let rec go (r : Types.node_ref) =
      if r.Types.ref_round < floor then false
      else if hit r then true
      else if Hashtbl.mem visited (key store r) then false
      else begin
        Hashtbl.replace visited (key store r) ();
        match Store.get_by_ref store r with
        | None -> false
        | Some cn ->
          List.exists go cn.Types.cn_node.Types.parents
          || List.exists go cn.Types.cn_node.Types.weak_parents
      end
    in
    go of_

  let is_ancestor store ~ancestor ~of_ =
    if Types.ref_equal ancestor of_ then true
    else if ancestor.Types.ref_round >= of_.Types.ref_round then false
    else search store ~floor:ancestor.Types.ref_round ~hit:(Types.ref_equal ancestor) of_

  let position_ancestor store ~round ~author ~of_ =
    if of_.Types.ref_round = round && of_.Types.ref_author = author then true
    else if round >= of_.Types.ref_round then false
    else
      search store ~floor:round
        ~hit:(fun (r : Types.node_ref) -> r.Types.ref_round = round && r.Types.ref_author = author)
        of_
end

(* Random DAGs for the traversal property: positions left empty, nodes
   never certified (proposals only, or nothing at all), parent refs whose
   digest matches no node, genesis-digest refs, weak edges several rounds
   down, and a GC floor that cuts the lower rounds off. A dark round stores
   nothing, nor does the round above it, so the store holds no slot for it
   and only weak edges reach it. *)
let random_dag rng =
  let n = 4 in
  let genesis = committee.Committee.genesis in
  let rounds = 2 + Shoalpp_support.Rng.int rng 7 in
  let store = Store.create ~n ~genesis_digest:genesis in
  let nodes = Array.make_matrix rounds n None in
  let all_refs = ref [] in
  let dark = Array.init rounds (fun r -> r > 0 && Shoalpp_support.Rng.int rng 4 = 0) in
  let unseen round = dark.(round) || (round > 0 && dark.(round - 1)) in
  let pick_ref ~round ~author =
    match Shoalpp_support.Rng.int rng 10 with
    | 0 -> { Types.ref_round = round; ref_author = author; ref_digest = Digest32.of_string "no such node" }
    | 1 -> { Types.ref_round = round; ref_author = author; ref_digest = genesis }
    | _ -> (
      match nodes.(round).(author) with
      | Some (node : Types.node) -> Types.ref_of_node node
      | None ->
        {
          Types.ref_round = round;
          ref_author = author;
          ref_digest = Digest32.of_string (Printf.sprintf "absent %d/%d" round author);
        })
  in
  for round = 0 to rounds - 1 do
    for author = 0 to n - 1 do
      if Shoalpp_support.Rng.int rng 6 > 0 then begin
        let parents =
          if round = 0 then []
          else
            List.filter_map
              (fun a ->
                if Shoalpp_support.Rng.int rng 4 > 0 then Some (pick_ref ~round:(round - 1) ~author:a)
                else None)
              [ 0; 1; 2; 3 ]
        in
        let weak_parents =
          if round < 2 then []
          else
            List.init (Shoalpp_support.Rng.int rng 3) (fun _ ->
                pick_ref
                  ~round:(Shoalpp_support.Rng.int rng (round - 1))
                  ~author:(Shoalpp_support.Rng.int rng n))
        in
        let node = make_node ~round ~author ~parents ~weak_parents () in
        nodes.(round).(author) <- Some node;
        all_refs := Types.ref_of_node node :: !all_refs;
        match Shoalpp_support.Rng.int rng 8 with
        | _ when unseen round -> ()
        | 0 -> () (* never seen *)
        | 1 -> ignore (Store.note_proposal store node) (* a slot without the node *)
        | _ -> ignore (Store.add_certified store (certify node))
      end
    done
  done;
  if Shoalpp_support.Rng.bool rng then
    ignore (Store.prune_below store ~round:(Shoalpp_support.Rng.int rng (rounds / 2 + 1)));
  let probes =
    List.init 6 (fun _ ->
        pick_ref ~round:(Shoalpp_support.Rng.int rng rounds) ~author:(Shoalpp_support.Rng.int rng n))
  in
  let skipped = Array.init rounds (fun _ -> Array.init n (fun _ -> Shoalpp_support.Rng.int rng 5 = 0)) in
  let skip (r : Types.node_ref) =
    r.Types.ref_round >= 0 && r.Types.ref_round < rounds && skipped.(r.Types.ref_round).(r.Types.ref_author)
  in
  (store, !all_refs @ probes, skip)

let same_history a b =
  match (a, b) with
  | Ok xs, Ok ys ->
    List.length xs = List.length ys
    && List.for_all2
         (fun (x : Types.certified_node) (y : Types.certified_node) ->
           Digest32.equal x.Types.cn_node.Types.digest y.Types.cn_node.Types.digest)
         xs ys
  | Error xs, Error ys -> List.length xs = List.length ys && List.for_all2 Types.ref_equal xs ys
  | _ -> false

(* Stamps are reused across calls, so every query below runs on a store
   that earlier traversals have already marked. *)
let prop_store_stamp_traversals_match_reference =
  QCheck.Test.make ~name:"stamp traversals match the table reference" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Shoalpp_support.Rng.create seed in
      let store, refs, skip = random_dag rng in
      let genesis = committee.Committee.genesis in
      let refs = Array.of_list refs in
      let any () = refs.(Shoalpp_support.Rng.int rng (Array.length refs)) in
      List.for_all
        (fun _ ->
          let root = any () and other = any () in
          let skip = if Shoalpp_support.Rng.bool rng then skip else fun _ -> false in
          same_history
            (Store.causal_history store root ~skip)
            (Reference_traversal.causal_history store ~genesis root ~skip)
          && Bool.equal
               (Store.is_ancestor store ~ancestor:other ~of_:root)
               (Reference_traversal.is_ancestor store ~ancestor:other ~of_:root)
          && Bool.equal
               (Store.position_ancestor store ~round:other.Types.ref_round
                  ~author:other.Types.ref_author ~of_:root)
               (Reference_traversal.position_ancestor store ~round:other.Types.ref_round
                  ~author:other.Types.ref_author ~of_:root))
        (List.init 12 Fun.id))

let prop_vote_preimage_matches_sprintf =
  QCheck.Test.make ~name:"vote preimage equals the sprintf form" ~count:200
    QCheck.(quad small_nat int int string)
    (fun (lane, round, author, s) ->
      let digest = Digest32.of_string s in
      String.equal
        (Types.vote_preimage ~lane ~round ~author ~digest)
        (Printf.sprintf "vote/%d/%d/%d/%s" lane round author (Digest32.raw digest)))

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
        Alcotest.test_case "lane replay refused" `Quick test_validation_lane_replay_refused;
        Alcotest.test_case "forged parent kept as received" `Quick test_forged_parent_kept;
      ] );
    ( "dag.validation_memo",
      [
        Alcotest.test_case "twins refused after original" `Quick
          test_memo_twins_refused_after_original;
        Alcotest.test_case "registry is part of the key" `Quick
          test_memo_registry_is_part_of_the_key;
        Alcotest.test_case "colliding values both verify" `Quick
          test_memo_colliding_values_both_verify;
        Alcotest.test_case "failures not memoized" `Quick test_memo_failures_not_memoized;
        Alcotest.test_case "decoded copies checked in full" `Quick
          test_memo_decoded_copies_checked_in_full;
        Alcotest.test_case "one native check per certificate" `Quick
          test_memo_one_native_check_per_certificate;
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
      @ qsuite [ prop_store_counters_match_naive; prop_store_stamp_traversals_match_reference ] );
  ]
