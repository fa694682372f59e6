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
     initial size and resets on recover;
   - a varint past max_int (bit 62 set) is refused, so no negative id
     decodes, and forged ids near 2^60 stay out of the dense bitmap;
   - a proposal's packed batch round-trips at 0-500 transactions, every
     strict prefix, a trailing byte and a count that disagrees with the
     stamps decode to [Error], its digest equals a reference list
     serialization kept here, and decoding allocates nothing per
     transaction beyond the batch's own bytes. *)

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

(* A round-0 node (no parents needed) with a valid author signature, for
   DAG lane [lane] (by default 1, the lane [over_wire] carries it on). *)
let make_node_of ?(lane = 1) ~author txns =
  let batch = Batch.make ~txns ~created_at:2.0 in
  let digest =
    Types.node_digest ~lane ~round:0 ~author ~batch_digest:batch.Batch.digest ~parents:[]
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

let make_node ?lane ~author ids = make_node_of ?lane ~author (txns ids)

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

let vote_preimage ~lane node =
  Types.vote_preimage ~lane ~round:node.Types.round ~author:node.Types.author
    ~digest:node.Types.digest

let honest ?(lane = 1) node =
  { Types.cn_node = node; cn_cert = cert_over node ~preimage:(vote_preimage ~lane node) }

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
      Result.is_ok (Validation.validate_certificate ~lane:1 ~committee ~verify_signatures:true c)
    | Types.Fetch_response cn ->
      Result.is_ok (Validation.validate_certified_node ~lane:1 ~committee ~verify_signatures:true cn)
    | Types.Sync_response { sp_resp = Types.Certificates { sc_certs; _ }; _ } ->
      List.for_all
        (fun cn ->
          Result.is_ok
            (Validation.validate_certified_node ~lane:1 ~committee ~verify_signatures:true cn))
        sc_certs
    | _ -> Alcotest.fail "unexpected message kind"
  in
  valid && Validation.signatures_ok ~lane:1 ~committee payload

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
              {
                sc_certs = [ honest (make_node ~author:0 [ 7 ]); cn ];
                sc_has_more = false;
                sc_next = 0;
                sc_highest = 41;
              };
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
      let r, bytes = allocated_during (fun () -> Types.decode_message ~lane:0 frame) in
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
    Realtime.framed exec
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
  let payload = Types.Fetch_response (honest ~lane:2 (make_node ~lane:2 ~author:3 [ 4; 5 ])) in
  let env = { Replica.dag_id = 2; payload } in
  tr.Backend.Transport.broadcast ~src:3 ~size:100 ~include_self:false env;
  let max_delay = Array.fold_left (fun acc row -> Array.fold_left Float.max acc row) 0.0 delays in
  Realtime.run_for exec ~duration_ms:(max_delay +. 400.0);
  Tcp.shutdown h;
  checki "one encode for the whole broadcast" 1 !encodes;
  checkb "the peers' decodes are timed" true ((Realtime.loop_stats exec).Realtime.decode_us > 0.0);
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
            (Validation.signatures_ok ~lane:e.Replica.dag_id ~committee e.Replica.payload)
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
    closes = true;
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

(* Sync request tags 1 (the round probe, now carried by the first page)
   and 3 (a range query minus known refs that no client sent) are retired,
   as is response tag 1 (the probe's answer): a frame carrying one decodes
   as malformed, and the other messages keep their tags and bytes. A page
   round-trips with the responder's highest round. *)
let test_retired_sync_tag () =
  let frame sq_req = Types.encode_message (Types.Sync_request { sq_requester = 2; sq_req }) in
  Alcotest.(check string)
    "range request" "\x07\x02\x02\x04\x09\x05"
    (frame (Types.Get_certificates_in_range { sr_from = 4; sr_to = 9; sr_cursor = 5 }));
  Alcotest.(check string) "checkpoint request" "\x07\x02\x04" (frame Types.Get_checkpoint);
  Alcotest.(check (result reject string))
    "request tag 1 is malformed" (Error "unknown sync request tag 1")
    (Types.decode_message ~lane:0 "\x07\x02\x01");
  Alcotest.(check (result reject string))
    "request tag 3 is malformed" (Error "unknown sync request tag 3")
    (Types.decode_message ~lane:0 "\x07\x02\x03\x04\x04\x00");
  Alcotest.(check (result reject string))
    "response tag 1 is malformed" (Error "unknown sync response tag 1")
    (Types.decode_message ~lane:0 "\x08\x02\x01\x09\x00");
  let page =
    Types.Sync_response
      {
        sp_responder = 2;
        sp_resp = Types.Certificates { sc_certs = []; sc_has_more = true; sc_next = 6; sc_highest = 300 };
      }
  in
  Alcotest.(check string)
    "empty page" "\x08\x02\x02\x00\x01\x06\xac\x02" (Types.encode_message page);
  match Types.decode_message ~lane:0 (Types.encode_message page) with
  | Ok (Types.Sync_response { sp_resp = Types.Certificates { sc_highest; sc_next; _ }; _ }) ->
    checki "highest round-trips" 300 sc_highest;
    checki "cursor round-trips" 6 sc_next
  | _ -> Alcotest.fail "a page must decode"

(* A varint may not set bit 62: nine bytes past [max_int] would decode to
   a negative int, and a negative transaction id off the wire would make
   the audit's [Seen.mark] raise once the transaction is ordered. *)
let test_varint_sign_bit () =
  let enc v =
    let w = Wire.Writer.create () in
    Wire.Writer.uint w v;
    Wire.Writer.contents w
  in
  let dec s = Wire.Reader.uint (Wire.Reader.of_string s) in
  checki "max_int round-trips" max_int (dec (enc max_int));
  let bad = "\xff\xff\xff\xff\xff\xff\xff\xff\x7f" in
  checkb "bit 62 refused as Malformed" true
    (match dec bad with _ -> false | exception Wire.Reader.Malformed _ -> true);
  (* The same nine bytes as the transaction id of a proposal. *)
  let frame = Types.encode_message (Types.Proposal (make_node ~author:1 [ max_int ])) in
  let top = enc max_int in
  let rec find i = if String.equal (String.sub frame i 9) top then i else find (i + 1) in
  let at = find 0 in
  let forged =
    String.sub frame 0 at ^ bad ^ String.sub frame (at + 9) (String.length frame - at - 9)
  in
  checkb "the honest proposal decodes" true (Result.is_ok (Types.decode_message ~lane:0 frame));
  checkb "the forged id is refused" true (Result.is_error (Types.decode_message ~lane:0 forged))

(* Forged ids far past any client counter land in the side table, not in
   the dense block, which never grows past 16 MiB. *)
let test_seen_forged_ids () =
  let module Seen = Shoalpp_support.Seen in
  let s = Seen.create () in
  let huge = 1 lsl 60 in
  let bytes () = Obj.reachable_words (Obj.repr s) * (Sys.word_size / 8) in
  checkb "fresh huge id" false (Seen.mark s huge);
  checkb "fresh max_int" false (Seen.mark s max_int);
  checkb "huge id remembered" true (Seen.mark s huge && Seen.mem s max_int);
  checkb "neighbours absent" false (Seen.mem s (huge + 1) || Seen.mem s (max_int - 1));
  checkb "dense id fresh" false (Seen.mark s 5);
  checkb "dense id remembered" true (Seen.mem s 5);
  checkb "block stays at its initial size" true (bytes () < 64 * 1024);
  let top_dense = (1 lsl 27) - 1 in
  checkb "top dense id fresh" false (Seen.mark s top_dense);
  checkb "top dense id remembered" true (Seen.mem s top_dense);
  checkb "block capped at 16 MiB" true (bytes () <= (16 * 1024 * 1024) + (64 * 1024));
  Seen.reset s;
  checkb "reset empties both" false (Seen.mem s huge || Seen.mem s max_int || Seen.mem s 5)

(* ------------------------------------------------------------------ *)
(* The packed batch on the wire.                                        *)

let gen_txns ~max =
  QCheck.Gen.(
    list_size (int_bound max)
      (map
         (fun (id, size, origin, stamp) -> Transaction.make ~id ~size ~submitted_at:stamp ~origin ())
         (quad (int_bound (1 lsl 40)) (int_bound 100_000) (int_bound 20) float)))

let print_txns l = Printf.sprintf "%d transactions" (List.length l)

let same_txn (a : Transaction.t) (b : Transaction.t) =
  a.Transaction.id = b.Transaction.id
  && a.Transaction.size = b.Transaction.size
  && a.Transaction.origin = b.Transaction.origin
  && Int64.equal
       (Int64.bits_of_float a.Transaction.submitted_at)
       (Int64.bits_of_float b.Transaction.submitted_at)

let proposal_frame txns = Types.encode_message (Types.Proposal (make_node_of ~author:1 txns))

let decoded_batch frame =
  match Types.decode_message ~lane:1 frame with
  | Ok (Types.Proposal node) -> node.Types.batch
  | Ok _ -> Alcotest.fail "not a proposal"
  | Error m -> Alcotest.failf "an honest proposal must decode: %s" m

let prop_batch_roundtrip =
  QCheck.Test.make ~name:"proposals of 0-500 transactions round-trip" ~count:60
    (QCheck.make ~print:print_txns (gen_txns ~max:500))
    (fun txns ->
      let sent = Batch.make ~txns ~created_at:2.0 in
      let frame = proposal_frame txns in
      let got = decoded_batch frame in
      List.length (Batch.txns got) = List.length txns
      && List.for_all2 same_txn txns (Batch.txns got)
      && Digest32.equal got.Batch.digest sent.Batch.digest
      && Batch.length got = Batch.length sent
      && Batch.wire_size got = Batch.wire_size sent
      && got.Batch.sole_origin = sent.Batch.sole_origin
      && String.equal frame
           (Types.encode_message (Types.Proposal (make_node_of ~author:1 (Batch.txns got)))))

let refused frame = Result.is_error (Types.decode_message ~lane:1 frame)

let prop_batch_malformed =
  QCheck.Test.make ~name:"prefixes and a trailing byte are refused" ~count:40
    (QCheck.make ~print:print_txns (gen_txns ~max:40))
    (fun txns ->
      let frame = proposal_frame txns in
      List.for_all (fun len -> refused (String.sub frame 0 len)) (List.init (String.length frame) Fun.id)
      && refused (frame ^ "\000"))

(* The frame starts with tag 1, round 0, author 1 and an 8-byte stamp;
   the batch's length prefix and then its count follow. *)
let test_batch_count_disagrees () =
  let txns = txns [ 1; 2; 3 ] in
  let frame = proposal_frame txns in
  let batch = Batch.make ~txns ~created_at:2.0 in
  let at = 11 + Shoalpp_support.Varint.encoded_size (String.length batch.Batch.packed) in
  checki "the count is where the layout puts it" 3 (Char.code frame.[at]);
  List.iter
    (fun count ->
      let forged = Bytes.of_string frame in
      Bytes.set forged at (Char.chr count);
      checkb (Printf.sprintf "count %d refused" count) true (refused (Bytes.to_string forged)))
    [ 0; 2; 4; 127 ]

(* The digest preimage as it was serialized before batches were packed:
   a count, then each transaction's id, size and origin as varints. *)
let reference_digest txns =
  let w = Wire.Writer.create () in
  Wire.Writer.list w
    (fun (tx : Transaction.t) ->
      Wire.Writer.uint w tx.Transaction.id;
      Wire.Writer.uint w tx.Transaction.size;
      Wire.Writer.uint w tx.Transaction.origin)
    txns;
  Digest32.of_string (Wire.Writer.contents w)

let prop_batch_digest_reference =
  QCheck.Test.make ~name:"batch digest equals the reference serialization" ~count:100
    (QCheck.make ~print:print_txns (gen_txns ~max:300))
    (fun txns ->
      let want = reference_digest txns in
      Digest32.equal want (Batch.make ~txns ~created_at:0.0).Batch.digest
      && Digest32.equal want (decoded_batch (proposal_frame txns)).Batch.digest)

(* Beyond the slice of the batch's own bytes, decoding a proposal
   allocates the same at 0, 50 and 500 transactions: no record, list
   cell or boxed stamp per transaction. *)
let test_batch_decode_allocation () =
  let over k =
    let txns = txns (List.init k Fun.id) in
    let frame = proposal_frame txns in
    ignore (decoded_batch frame);
    let _, bytes = allocated_during (fun () -> Types.decode_message ~lane:1 frame) in
    bytes -. float_of_int (String.length (Batch.make ~txns ~created_at:2.0).Batch.packed)
  in
  let base = over 0 in
  List.iter
    (fun k ->
      let extra = over k in
      checkb
        (Printf.sprintf "%d transactions: %.0f bytes beyond the batch, %.0f at none" k extra base)
        true
        (extra <= base +. 16.0))
    [ 50; 500 ]

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
        Alcotest.test_case "varint refuses bit 62" `Quick test_varint_sign_bit;
        Alcotest.test_case "retired sync tag is malformed" `Quick test_retired_sync_tag;
        Alcotest.test_case "forged huge ids stay sparse" `Quick test_seen_forged_ids;
      ] );
    ( "wire.batch",
      List.map QCheck_alcotest.to_alcotest
        [ prop_batch_roundtrip; prop_batch_malformed; prop_batch_digest_reference ]
      @ [
          Alcotest.test_case "count disagreeing with the stamps refused" `Quick
            test_batch_count_disagrees;
          Alcotest.test_case "decode allocates nothing per transaction" `Quick
            test_batch_decode_allocation;
        ] );
  ]
