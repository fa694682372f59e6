(* Tests for the node's message path:

   - certificates carry their aggregate: a Certificate, a Fetch_response,
     a Sync_response page and a checkpoint blob whose signer bitmap is a
     valid quorum but whose 32-byte aggregate is wrong must be refused by
     validation after crossing the codec, and honest ones must round-trip
     and verify;
   - a signer-bitmap capacity above the Multisig ceiling is refused before
     the decoder allocates the bitmap;
   - one broadcast over the TCP stack under the gcp10 shim is encoded
     once, and every peer decodes an equal message;
   - the harness's bitmap dedup counts a duplicate order, grows past its
     initial size and resets on recover. *)

module Backend = Shoalpp_backend.Backend
module Realtime = Shoalpp_backend.Backend_realtime
module Tcp = Shoalpp_backend.Tcp_transport
module Node = Shoalpp_runtime.Node
module Harness = Shoalpp_runtime.Harness
module Replica = Shoalpp_core.Replica
module Config = Shoalpp_core.Config
module Committee = Shoalpp_dag.Committee
module Types = Shoalpp_dag.Types
module Validation = Shoalpp_dag.Validation
module Checkpoint = Shoalpp_storage.Checkpoint
module Digest32 = Shoalpp_crypto.Digest32
module Signer = Shoalpp_crypto.Signer
module Multisig = Shoalpp_crypto.Multisig
module Batch = Shoalpp_workload.Batch
module Transaction = Shoalpp_workload.Transaction
module Mempool = Shoalpp_workload.Mempool
module Driver = Shoalpp_consensus.Driver
module Topology = Shoalpp_sim.Topology
module Telemetry = Shoalpp_support.Telemetry
module Wire = Shoalpp_codec.Wire

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let n = 4
let committee = Committee.make ~n ~cluster_seed:19 ()

let txns ids =
  List.map (fun id -> Transaction.make ~id ~submitted_at:1.5 ~origin:(id mod n) ()) ids

(* A round-0 node (no parents needed) with a valid author signature. *)
let make_node ~author ids =
  let batch = Batch.make ~txns:(txns ids) ~created_at:2.0 in
  let digest =
    Types.node_digest ~round:0 ~author ~batch_digest:batch.Batch.digest ~parents:[]
      ~weak_parents:[]
  in
  {
    Types.round = 0;
    author;
    batch;
    parents = [];
    weak_parents = [];
    digest;
    signature = Signer.sign (Committee.keypair committee author) (Digest32.raw digest);
    created_at = 2.0;
  }

(* A quorum of signers over [preimage]: honest when it is the vote
   preimage of the certified ref, a wrong aggregate otherwise. *)
let cert_over node ~preimage =
  {
    Types.cert_ref = Types.ref_of_node node;
    multisig =
      Multisig.aggregate ~n
        (List.map
           (fun r -> (r, Signer.sign (Committee.keypair committee r) preimage))
           [ 0; 1; 2 ]);
  }

let vote_preimage node =
  Types.vote_preimage ~round:node.Types.round ~author:node.Types.author
    ~digest:node.Types.digest

let honest node = { Types.cn_node = node; cn_cert = cert_over node ~preimage:(vote_preimage node) }
let forged node = { Types.cn_node = node; cn_cert = cert_over node ~preimage:"not the vote" }

(* Through the socket codec, as a TCP peer would receive it. *)
let over_wire payload =
  match
    Node.decode_envelope ~cluster_seed:committee.Committee.cluster_seed
      (Node.encode_envelope { Replica.dag_id = 1; payload })
  with
  | Some env ->
    checki "lane tag survives" 1 env.Replica.dag_id;
    env.Replica.payload
  | None -> Alcotest.fail "an honestly encoded envelope must decode"

(* The replica's checks: inline validation and the verify pool's. *)
let accepted payload =
  let valid =
    match payload with
    | Types.Certificate c ->
      Result.is_ok (Validation.validate_certificate ~committee ~verify_signatures:true c)
    | Types.Fetch_response cn ->
      Result.is_ok (Validation.validate_certified_node ~committee ~verify_signatures:true cn)
    | Types.Sync_response { sp_resp = Types.Certificates { sc_certs; _ }; _ } ->
      List.for_all
        (fun cn ->
          Result.is_ok (Validation.validate_certified_node ~committee ~verify_signatures:true cn))
        sc_certs
    | _ -> Alcotest.fail "unexpected message kind"
  in
  valid && Validation.signatures_ok ~committee payload

let cases cn =
  [
    ("certificate", Types.Certificate cn.Types.cn_cert);
    ("fetch response", Types.Fetch_response cn);
    ( "sync page",
      Types.Sync_response
        {
          sp_responder = 2;
          sp_resp =
            Types.Certificates
              { sc_certs = [ honest (make_node ~author:0 [ 7 ]); cn ]; sc_has_more = false; sc_next = 0 };
        } );
  ]

let test_forged_aggregate_refused kind () =
  let bad = forged (make_node ~author:1 [ 1; 2; 3 ]) in
  checki "the forged bitmap is a quorum" (Committee.quorum committee)
    (Multisig.num_signers bad.Types.cn_cert.Types.multisig);
  checkb (kind ^ ": refused after the codec") false
    (accepted (over_wire (List.assoc kind (cases bad))))

let test_honest_aggregates_roundtrip () =
  let node = make_node ~author:1 [ 1; 2; 3 ] in
  List.iter
    (fun (label, msg) ->
      let back = over_wire msg in
      checkb (label ^ ": accepted after the codec") true (accepted back);
      checkb (label ^ ": re-encodes to the same bytes") true
        (String.equal (Types.encode_message msg) (Types.encode_message back)))
    (cases (honest node))

let ck_candidate =
  Checkpoint.candidate ~seq:12
    ~lanes:[ { Checkpoint.dag_id = 0; round = 4; resume = "r" } ]
    ~state:(Digest32.of_string "stream")

let ck_votes ~preimage =
  List.map
    (fun r ->
      let kp = Committee.keypair committee r in
      (Signer.public kp, Signer.sign kp preimage))
    [ 0; 1; 3 ]

let test_forged_checkpoint_blob_refused () =
  let quorum = Committee.quorum committee in
  let keys = committee.Committee.keys in
  let honest_ck =
    Checkpoint.certify ~n ck_candidate (ck_votes ~preimage:(Checkpoint.preimage ck_candidate))
  in
  let decoded = Checkpoint.decode ~n (Checkpoint.encode honest_ck) in
  checkb "honest blob verifies after decode" true (Checkpoint.verify ~keys ~quorum decoded);
  checkb "honest blob re-encodes to the same bytes" true
    (String.equal (Checkpoint.encode honest_ck) (Checkpoint.encode decoded));
  let forged_ck = Checkpoint.certify ~n ck_candidate (ck_votes ~preimage:"other") in
  let decoded = Checkpoint.decode ~n (Checkpoint.encode forged_ck) in
  checki "forged blob names a quorum" quorum (Multisig.num_signers (Checkpoint.cert decoded));
  checkb "forged blob refused after decode" false (Checkpoint.verify ~keys ~quorum decoded)

(* Tag 3 (Certificate), a ref, then a bitmap capacity of 10^9 and one
   signer: 42 bytes that made the decoder allocate a ~125 MB bitmap before
   aggregates went on the wire. [~aggregate] appends the 32-byte
   aggregate the decoder now expects, so the capacity is all that is
   wrong with the frame. *)
let huge_capacity_certificate ~aggregate =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w 3;
  Wire.Writer.uint w 5;
  Wire.Writer.uint w 1;
  Wire.Writer.raw w (String.make 32 'd');
  Wire.Writer.uint w 1_000_000_000;
  Wire.Writer.list w (Wire.Writer.uint w) [ 0 ];
  if aggregate then Wire.Writer.raw w (String.make Multisig.combined_size 'a');
  Wire.Writer.contents w

(* Bytes this domain allocated: its minor-heap words plus its direct
   major-heap allocations (where a huge bitmap would land). Not
   [Gc.allocated_bytes]: on OCaml 5.1 the minor term of [Gc.counters] can
   jump by a whole minor heap (~1.8 MB) when another live domain forces a
   stop-the-world minor collection inside the window. *)
let domain_allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

let allocated_during f =
  let before = domain_allocated_bytes () in
  let r = f () in
  (r, domain_allocated_bytes () -. before)

let test_capacity_ceiling () =
  let short = huge_capacity_certificate ~aggregate:false in
  checki "the old frame is 42 bytes" 42 (String.length short);
  List.iter
    (fun (label, frame) ->
      let r, bytes = allocated_during (fun () -> Types.decode_message frame) in
      checkb (label ^ ": refused") true (Result.is_error r);
      checkb (Printf.sprintf "%s: no bitmap allocated (%.0f bytes)" label bytes) true
        (bytes < 65536.0))
    [ ("42-byte frame", short); ("with an aggregate", huge_capacity_certificate ~aggregate:true) ];
  (* The checkpoint decoder takes its committee size from the caller; the
     same ceiling applies before its bitmap is built. *)
  let blob =
    Checkpoint.encode
      (Checkpoint.certify ~n ck_candidate
         (ck_votes ~preimage:(Checkpoint.preimage ck_candidate)))
  in
  let r, bytes =
    allocated_during (fun () ->
        match Checkpoint.decode ~n:1_000_000_000 blob with
        | _ -> `Decoded
        | exception Wire.Reader.Malformed _ -> `Malformed)
  in
  checkb "checkpoint capacity over the ceiling is malformed" true (r = `Malformed);
  checkb (Printf.sprintf "no checkpoint bitmap allocated (%.0f bytes)" bytes) true (bytes < 65536.0)

(* ------------------------------------------------------------------ *)
(* One encode per broadcast over TCP under the gcp10 shim.              *)

(* The node's TCP composition: codec step above the delay shim above the
   socket transport, with the node's own envelope codec, counted. *)
let test_broadcast_encoded_once () =
  let n = 10 in
  let exec = Realtime.create () in
  let h = Tcp.create exec ~n () in
  let encodes = ref 0 in
  let delays = Topology.delay_matrix (Topology.gcp10 ()) ~n in
  let tr =
    Realtime.framed
      ~encode:(fun w env ->
        incr encodes;
        Node.write_envelope w env)
      ~decode:Node.read_envelope
      (Realtime.delayed exec ~delay_ms:(fun ~src ~dst -> delays.(src).(dst)) (Tcp.transport h))
  in
  let inbox = Array.make n [] in
  for r = 0 to n - 1 do
    tr.Backend.Transport.set_handler r (fun ~src env -> inbox.(r) <- (src, env) :: inbox.(r))
  done;
  let env = { Replica.dag_id = 2; payload = Types.Fetch_response (honest (make_node ~author:3 [ 4; 5 ])) } in
  tr.Backend.Transport.broadcast ~src:3 ~size:100 ~include_self:false env;
  let max_delay = Array.fold_left (fun acc row -> Array.fold_left Float.max acc row) 0.0 delays in
  Realtime.run_for exec ~duration_ms:(max_delay +. 400.0);
  Tcp.shutdown h;
  checki "one encode for the whole broadcast" 1 !encodes;
  let want = Node.encode_envelope env in
  Array.iteri
    (fun r got ->
      if r = 3 then checki "no self delivery" 0 (List.length got)
      else
        match got with
        | [ (src, e) ] ->
          checki (Printf.sprintf "peer %d: sender" r) 3 src;
          checkb (Printf.sprintf "peer %d: equal message" r) true
            (String.equal want (Node.encode_envelope e));
          checkb (Printf.sprintf "peer %d: aggregate verifies" r) true
            (Validation.signatures_ok ~committee e.Replica.payload)
        | l -> Alcotest.failf "peer %d got %d messages" r (List.length l))
    inbox

(* ------------------------------------------------------------------ *)
(* The harness's bitmap dedup.                                          *)

let segment ~round ids =
  let node = make_node ~author:0 ids in
  {
    Driver.dag_id = 0;
    anchor = { (Types.ref_of_node node) with Types.ref_round = round };
    kind = Driver.Fast;
    nodes = [ honest node ];
    committed_at = 0.0;
    resume = None;
  }

let test_bitmap_dedup () =
  let exec = Realtime.create () in
  let backend = Realtime.backend exec (Realtime.loopback exec ~n) in
  let sinks = Array.make n (fun (_ : Replica.ordered) -> ()) in
  let caught_up = Array.make n (fun () -> ()) in
  let config = Config.without_signature_checks (Config.shoalpp ~committee) in
  let telemetry = Telemetry.create () in
  let h =
    Harness.create ~backend ~n ~num_dags:config.Config.num_dags ~load_tps:0.0 ~tx_size:310 ~seed:1
      ~warmup_ms:0.0 ~track_logs:true ~telemetry ~hooks:Harness.replica_hooks
      ~make_replica:(fun replica_id ~mempool ~on_commit ~on_caught_up ->
        let on_ordered o = on_commit (Harness.commit_of_ordered o) in
        sinks.(replica_id) <- on_ordered;
        caught_up.(replica_id) <- on_caught_up;
        Replica.create ~config ~replica_id ~backend ~mempool ~on_ordered ~on_caught_up ~telemetry
          ~retain_wal:true ())
      ()
  in
  let seq = ref 0 in
  let order r ids =
    incr seq;
    sinks.(r) { Replica.global_seq = !seq; segment = segment ~round:!seq ids; ordered_at = 0.0 }
  in
  let dups () = (Harness.audit h).Harness.duplicate_orders in
  (* 200k dense ids: far past the bitmap's initial size. *)
  let big = 200_000 in
  List.iter (fun lo -> order 0 (List.init 10_000 (fun i -> lo + i))) (List.init (big / 10_000) (fun k -> k * 10_000));
  checki "dense ids, no duplicates" 0 (dups ());
  order 0 [ 7 ];
  checki "low id repeated" 1 (dups ());
  order 0 [ big - 1; big + 5 ];
  checki "top id repeated, fresh id after it not" 2 (dups ());
  order 0 [ big + 5 ];
  checki "id added by growth is remembered" 3 (dups ());
  order 1 [ 7; big - 1 ];
  checki "dedup is per replica" 3 (dups ());
  Harness.crash h 0;
  Harness.recover h 0;
  if Harness.recovering h 0 then caught_up.(0) ();
  order 0 [ 7; big - 1 ];
  checki "recover reset the replica's set" 3 (dups ());
  order 0 [ 7 ];
  checki "and it counts again afterwards" 4 (dups ())

let suite =
  [
    ( "wire.aggregate",
      [
        Alcotest.test_case "forged certificate refused" `Quick
          (test_forged_aggregate_refused "certificate");
        Alcotest.test_case "forged fetch response refused" `Quick
          (test_forged_aggregate_refused "fetch response");
        Alcotest.test_case "forged sync page refused" `Quick
          (test_forged_aggregate_refused "sync page");
        Alcotest.test_case "honest aggregates round-trip and verify" `Quick
          test_honest_aggregates_roundtrip;
        Alcotest.test_case "forged checkpoint blob refused" `Quick
          test_forged_checkpoint_blob_refused;
        Alcotest.test_case "bitmap capacity ceiling before allocation" `Quick test_capacity_ceiling;
      ] );
    ( "wire.path",
      [
        Alcotest.test_case "broadcast encoded once over tcp + gcp10 shim" `Quick
          test_broadcast_encoded_once;
        Alcotest.test_case "bitmap dedup: duplicates, growth, recover" `Quick test_bitmap_dedup;
      ] );
  ]
