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
     transaction beyond the batch's own bytes;
   - a received node points at the refs its lane already holds: a decoded
     proposal's parents are the lane's certificate refs, a late
     certificate carries its stored node's digest, and a receiver handed
     decoded copies stores, votes and commits exactly as one handed the
     sender's own values, in any arrival order, on one domain or on
     several. *)

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
module Store = Shoalpp_dag.Store
module Instance = Shoalpp_dag.Instance
module Engine = Shoalpp_sim.Engine

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let n = 4
let committee = Committee.make ~n ~cluster_seed:19 ()

let txns ids =
  List.map (fun id -> Transaction.make ~id ~submitted_at:1.5 ~origin:(id mod n) ()) ids

(* A node (by default in round 0, with no parents) with a valid author
   signature, for DAG lane [lane] (by default 1, the lane [over_wire]
   carries it on). *)
let make_node_of ?(lane = 1) ?(round = 0) ?(parents = []) ~author txns =
  let batch = Batch.make ~txns ~created_at:2.0 in
  let digest =
    Types.node_digest ~lane ~round ~author ~batch_digest:batch.Batch.digest ~parents
      ~weak_parents:[]
  in
  {
    Types.round;
    author;
    batch;
    parents;
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

(* ------------------------------------------------------------------ *)
(* Shared refs. *)

(* One replica's k lanes, passive: per lane a store, an instance and a
   driver, on an engine that never runs, so nothing is proposed or
   fetched and each vote leaves at once. What it sends and what its
   drivers emit is kept as bytes, newest first. *)
type receiver = {
  mutable lanes : (Store.t * Instance.t) array;
  mutable sent : string list;
  mutable segments : string list;
}

let describe (s : Driver.segment) =
  Printf.sprintf "%d %d/%d %s %s" s.Driver.dag_id s.Driver.anchor.Types.ref_round
    s.Driver.anchor.Types.ref_author
    (match s.Driver.kind with Driver.Fast -> "fast" | Direct -> "direct" | Indirect -> "indirect")
    (String.concat ","
       (List.map
          (fun (cn : Types.certified_node) -> Digest32.hex cn.Types.cn_node.Types.digest)
          s.Driver.nodes))

let receiver ~k ~me =
  let engine = Engine.create () in
  let rv = { lanes = [||]; sent = []; segments = [] } in
  let lane dag_id =
    let store = Store.create ~n ~genesis_digest:committee.Committee.genesis in
    let driver = ref None in
    let notify _ = Option.iter Driver.notify !driver in
    let keep ~dst m =
      rv.sent <- Printf.sprintf "%d>%s" dst (Types.encode_message m) :: rv.sent
    in
    let callbacks =
      {
        Instance.broadcast = keep ~dst:(-1);
        send = keep;
        now = (fun () -> Engine.now engine);
        schedule =
          (Shoalpp_backend.Backend_sim.timers engine).Shoalpp_backend.Backend.Timers.schedule;
        pull_batch = (fun ~max:_ -> []);
        anchors_of_round = (fun _ -> []);
        persist = (fun _ k -> k ());
        on_proposal_noted = notify;
        on_certified = notify;
        on_cert_meta = notify;
        earliest = (fun ~round:_ ~ready:_ -> neg_infinity);
        entered = (fun ~round:_ ~held:_ -> ());
      }
    in
    let cfg = { (Instance.default_config ~committee ~replica:me) with Instance.dag_id } in
    let inst = Instance.create cfg callbacks ~store in
    driver :=
      Some
        (Driver.create
           { (Driver.default_config ~committee) with Driver.dag_id }
           {
             Driver.now = (fun () -> Engine.now engine);
             cert_ref = Instance.cert_ref_at inst;
             request_fetch = Instance.fetch_missing inst;
             on_segment = (fun s -> rv.segments <- describe s :: rv.segments);
             request_gc = (fun ~round -> Instance.gc_upto inst ~round);
             direct_guard = None;
           }
           ~store);
    (store, inst)
  in
  rv.lanes <- Array.init k lane;
  rv

(* Lane [lane]'s certified rounds [0, rounds), oldest first: every
   author's node names the round before by its certificates' own refs, as
   a proposer names the refs its lane holds. *)
let source_dag ~lane ~rounds =
  let rec go round prev acc =
    if round = rounds then List.rev acc
    else begin
      let parents =
        List.map (fun (cn : Types.certified_node) -> cn.Types.cn_cert.Types.cert_ref) prev
      in
      let cns =
        List.init n (fun author ->
            honest ~lane
              (make_node_of ~lane ~round ~parents ~author
                 (txns [ (1000 * lane) + (n * round) + author ])))
      in
      go (round + 1) cns (List.rev_append cns acc)
    end
  in
  go 0 [] []

let decoded ~lane msg =
  match Types.decode_message ~lane (Types.encode_message msg) with
  | Ok m -> m
  | Error e -> Alcotest.fail e

let deliver rv ~lane ~src msg = Instance.handle_message (snd rv.lanes.(lane)) ~src msg

let lane_ref_is rv ~lane (p : Types.node_ref) =
  match
    Instance.cert_ref_at (snd rv.lanes.(lane)) ~round:p.Types.ref_round ~author:p.Types.ref_author
  with
  | Some own -> own == p
  | None -> false

let test_decoded_parents_shared () =
  let rv = receiver ~k:2 ~me:3 in
  let dag = source_dag ~lane:1 ~rounds:2 in
  let r0, r1 = List.partition (fun cn -> cn.Types.cn_node.Types.round = 0) dag in
  List.iter
    (fun cn ->
      deliver rv ~lane:1 ~src:cn.Types.cn_node.Types.author
        (decoded ~lane:1 (Types.Certificate cn.Types.cn_cert)))
    r0;
  let cn = List.hd r1 in
  let node = cn.Types.cn_node in
  let store = fst rv.lanes.(1) in
  deliver rv ~lane:1 ~src:node.Types.author (decoded ~lane:1 (Types.Proposal node));
  let stored =
    match Store.proposal store (Types.ref_of_node node) with
    | Some p -> p
    | None -> Alcotest.fail "the decoded proposal is stored"
  in
  checki "every parent named" n (List.length stored.Types.parents);
  checkb "its parents are the lane's certificate refs" true
    (List.for_all (lane_ref_is rv ~lane:1) stored.Types.parents);
  deliver rv ~lane:1 ~src:node.Types.author (decoded ~lane:1 (Types.Certificate cn.Types.cn_cert));
  (match Store.get store ~round:1 ~author:node.Types.author with
  | Some got ->
    checkb "the late certificate carries the node's digest" true
      (got.Types.cn_cert.Types.cert_ref.Types.ref_digest == got.Types.cn_node.Types.digest);
    checkb "its node is the stored proposal" true (got.Types.cn_node == stored)
  | None -> Alcotest.fail "the certified node is stored");
  (* The sender's own values point at refs the lane does not hold, and an
     instance that holds them keeps the value it was handed. *)
  let twin = receiver ~k:2 ~me:3 in
  List.iter
    (fun cn ->
      deliver twin ~lane:1 ~src:cn.Types.cn_node.Types.author (Types.Certificate cn.Types.cn_cert))
    r0;
  deliver twin ~lane:1 ~src:node.Types.author (Types.Proposal node);
  checkb "a shared value is stored as itself" true
    (match Store.proposal (fst twin.lanes.(1)) (Types.ref_of_node node) with
    | Some p -> p == node
    | None -> false)

(* The messages of [k] lanes' DAGs in an arrival order drawn from [seed]:
   every proposal and certificate, and a fetch response for about a third
   of the positions. *)
let arrivals ~k ~rounds ~seed =
  let rng = Random.State.make [| seed |] in
  let msgs =
    List.concat_map
      (fun lane ->
        List.concat_map
          (fun (cn : Types.certified_node) ->
            let author = cn.Types.cn_node.Types.author in
            [
              (lane, author, Types.Proposal cn.Types.cn_node);
              (lane, author, Types.Certificate cn.Types.cn_cert);
            ]
            @
            if Random.State.int rng 3 = 0 then
              [ (lane, (author + 1) mod n, Types.Fetch_response cn) ]
            else [])
          (source_dag ~lane ~rounds))
      (List.init k Fun.id)
  in
  let a = Array.of_list msgs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let stored_bytes rv ~lane ~round ~author =
  Option.map
    (fun cn -> Types.encode_message (Types.Fetch_response cn))
    (Store.get (fst rv.lanes.(lane)) ~round ~author)

let prop_decoded_matches_shared =
  QCheck.Test.make ~name:"decoded and shared arrivals store the same DAG" ~count:40
    QCheck.(pair (int_range 1 3) small_nat)
    (fun (k, seed) ->
      let rounds = 6 in
      let msgs = arrivals ~k ~rounds ~seed in
      let tcp = receiver ~k ~me:3 and twin = receiver ~k ~me:3 in
      (* First arrival of each position's certificate and of its node. *)
      let first = Hashtbl.create 64 in
      let seen key i = if not (Hashtbl.mem first key) then Hashtbl.replace first key i in
      Array.iteri
        (fun i (lane, src, msg) ->
          (match msg with
          | Types.Proposal node -> seen (`Node, lane, node.Types.round, node.Types.author) i
          | Types.Certificate c ->
            let r = c.Types.cert_ref in
            seen (`Cert, lane, r.Types.ref_round, r.Types.ref_author) i
          | Types.Fetch_response cn ->
            let node = cn.Types.cn_node in
            seen (`Node, lane, node.Types.round, node.Types.author) i;
            seen (`Cert, lane, node.Types.round, node.Types.author) i
          | _ -> ());
          deliver tcp ~lane ~src (decoded ~lane msg);
          deliver twin ~lane ~src msg)
        msgs;
      let all_positions =
        List.concat_map
          (fun lane ->
            List.concat_map
              (fun round -> List.init n (fun author -> (lane, round, author)))
              (List.init rounds Fun.id))
          (List.init k Fun.id)
      in
      let same_vertices =
        List.for_all
          (fun (lane, round, author) ->
            stored_bytes tcp ~lane ~round ~author = stored_bytes twin ~lane ~round ~author)
          all_positions
      in
      let sources = Hashtbl.create 64 in
      Array.iter
        (fun (lane, _, msg) ->
          match msg with
          | Types.Proposal node ->
            Hashtbl.replace sources (lane, node.Types.round, node.Types.author) node
          | _ -> ())
        msgs;
      let twin_keeps_values =
        List.for_all
          (fun (lane, round, author) ->
            match Store.get (fst twin.lanes.(lane)) ~round ~author with
            | Some cn -> cn.Types.cn_node == Hashtbl.find sources (lane, round, author)
            | None -> true)
          all_positions
      in
      let shared_when_cert_first =
        List.for_all
          (fun (lane, round, author) ->
            match Store.get (fst tcp.lanes.(lane)) ~round ~author with
            | None -> true
            | Some cn ->
              let node_at = Hashtbl.find first (`Node, lane, round, author) in
              List.for_all
                (fun (p : Types.node_ref) ->
                  let cert = (`Cert, lane, p.Types.ref_round, p.Types.ref_author) in
                  match Hashtbl.find_opt first cert with
                  | Some c when c < node_at -> lane_ref_is tcp ~lane p
                  | _ -> true)
                cn.Types.cn_node.Types.parents)
          all_positions
      in
      same_vertices && twin_keeps_values && shared_when_cert_first
      && tcp.sent = twin.sent && tcp.segments <> [] && tcp.segments = twin.segments
      && Array.for_all2
           (fun (_, a) (_, b) -> Instance.invalid_dropped a = 0 && Instance.invalid_dropped b = 0)
           tcp.lanes twin.lanes)

(* Under --domains 2 over TCP, each lane's step runs on its own domain
   against its own certificates: nearly every stored parent is the stored
   certificate's ref at its position (a proposal can outrun a parent's
   certificate, so not all). *)
let test_multicore_tcp_shares () =
  let protocol = Config.shoalpp ~committee in
  let setup =
    {
      (Node.default_setup ~protocol) with
      Node.load_tps = 400.0;
      seed = 5;
      domains = 2;
      transport = Node.Tcp 0;
    }
  in
  let node = Node.create setup in
  Node.run node ~duration_ms:1_200.0;
  let counted = ref 0 and shared = ref 0 in
  Array.iter
    (fun r ->
      for dag_id = 0 to protocol.Config.num_dags - 1 do
        let store = Replica.store r ~dag_id in
        for round = Store.lowest_stored store to Store.highest_round store do
          List.iter
            (fun (cn : Types.certified_node) ->
              List.iter
                (fun (p : Types.node_ref) ->
                  match Store.get store ~round:p.Types.ref_round ~author:p.Types.ref_author with
                  | Some at ->
                    incr counted;
                    if p == at.Types.cn_cert.Types.cert_ref then incr shared
                  | None -> ())
                cn.Types.cn_node.Types.parents)
            (Store.nodes_at store ~round)
        done
      done)
    (Node.replicas node);
  checkb "the audit holds" true (Harness.ok (Node.audit node));
  checkb "parents stored" true (!counted > 100);
  checkb
    (Printf.sprintf "%d of %d stored parents shared" !shared !counted)
    true
    (float_of_int !shared >= 0.95 *. float_of_int !counted)

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
    ( "wire.shared_refs",
      [
        Alcotest.test_case "decoded parents and late certificates shared" `Quick
          test_decoded_parents_shared;
        QCheck_alcotest.to_alcotest prop_decoded_matches_shared;
        Alcotest.test_case "multicore tcp node shares parents" `Quick test_multicore_tcp_shares;
      ] );
  ]
