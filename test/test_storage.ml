(* Bounded-memory lifecycle tests: WAL retention keyed on (lane, round),
   commit-certified checkpoint certification and forgery refusal, the
   store's logical-vs-physical pruning floors, the catch-up sync
   protocol's paging and peer rotation, and the end-to-end properties the
   lifecycle promises — a checkpointed crash-recover that restarts from
   the latest certified checkpoint in O(gap) sync messages, and commit
   sequences byte-identical with checkpointing on vs off — plus the shared
   run audit's recovery-prefix check, on hand-built logs and on a
   realtime node restart. *)

module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store
module Committee = Shoalpp_dag.Committee
module Digest32 = Shoalpp_crypto.Digest32
module Signer = Shoalpp_crypto.Signer
module Multisig = Shoalpp_crypto.Multisig
module Batch = Shoalpp_workload.Batch
module Transaction = Shoalpp_workload.Transaction
module Wal = Shoalpp_storage.Wal
module Checkpoint = Shoalpp_storage.Checkpoint
module Wire = Shoalpp_codec.Wire
module Sync = Shoalpp_sync.Sync
module Engine = Shoalpp_sim.Engine
module Trace = Shoalpp_sim.Trace
module Faults = Shoalpp_sim.Faults
module E = Shoalpp_baselines.Experiment
module Cluster = Shoalpp_runtime.Cluster
module Harness = Shoalpp_runtime.Harness
module Node = Shoalpp_runtime.Node
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Telemetry = Shoalpp_support.Telemetry
module Topology = Shoalpp_sim.Topology

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* WAL retention keyed on (lane, round).                               *)

let make_wal engine = Wal.create ~timers:(Shoalpp_backend.Backend_sim.timers engine) ~sync_latency_ms:5.0 ~retain:true ()
let entry ~lane ~round s = { Wal.lane; round; payload = (fun () -> s) }

let append_synced engine wal ~lane ~round s =
  Wal.append wal ~entry:(entry ~lane ~round s) (fun () -> ());
  Engine.run ~until:(Engine.now engine +. 50.0) engine

let check_entries = Alcotest.(check (list (pair int string)))

(* The lanes run out of phase: lane 1 is 40 rounds ahead of the seam round
   10 that all three share. Truncating each lane below its seam round keeps
   every entry at or above it, on the leading lane too, and a lane's cut
   never touches another lane. *)
let test_wal_leading_lane_keeps_its_rounds () =
  let engine = Engine.create () in
  let wal = make_wal engine in
  for round = 8 to 50 do
    List.iter
      (fun lane ->
        if lane = 1 || round <= 12 then
          append_synced engine wal ~lane ~round (Printf.sprintf "%d.%d" lane round))
      [ 0; 1; 2 ]
  done;
  checki "lane 0 below its seam" 2 (Wal.truncate_below wal ~lane:0 ~round:10);
  Alcotest.(check (list (pair int int))) "other lanes untouched" [ (0, 3); (1, 43); (2, 5) ] (Wal.segments wal);
  checki "lane 1 below its seam" 2 (Wal.truncate_below wal ~lane:1 ~round:10);
  checki "lane 2 below its seam" 2 (Wal.truncate_below wal ~lane:2 ~round:10);
  let kept lane = List.filter_map (fun (l, s) -> if l = lane then Some s else None) (Wal.entries wal) in
  Alcotest.(check (list string))
    "the leading lane keeps rounds 10 to 50"
    (List.init 41 (fun i -> Printf.sprintf "1.%d" (10 + i)))
    (kept 1);
  Alcotest.(check (list string)) "lane 0 keeps rounds 10 to 12" [ "0.10"; "0.11"; "0.12" ] (kept 0);
  checki "truncation is idempotent" 0 (Wal.truncate_below wal ~lane:1 ~round:10)

(* An append in flight when a truncation runs is not yet retained, so the
   truncation cannot drop it: it lands when its sync completes, whatever
   its round. *)
let test_wal_inflight_survives_truncation () =
  let engine = Engine.create () in
  let wal = make_wal engine in
  append_synced engine wal ~lane:0 ~round:3 "old";
  Wal.append wal ~entry:(entry ~lane:0 ~round:4 "in-flight") (fun () -> ());
  checki "only the durable entry is dropped" 1 (Wal.truncate_below wal ~lane:0 ~round:10);
  Engine.run ~until:(Engine.now engine +. 50.0) engine;
  check_entries "the in-flight append landed" [ (0, "in-flight") ] (Wal.entries wal)

(* A retained record is encoded only when it is replayed: appending,
   syncing and truncating never call its payload thunk. *)
let test_wal_payload_encoded_on_replay () =
  let engine = Engine.create () in
  let wal = make_wal engine in
  let calls = ref 0 in
  let payload s () =
    incr calls;
    s
  in
  Wal.append wal ~entry:{ Wal.lane = 0; round = 1; payload = payload "a" } (fun () -> ());
  Engine.run ~until:50.0 engine;
  Wal.append wal ~entry:{ Wal.lane = 1; round = 1; payload = payload "b" } (fun () -> ());
  Engine.run ~until:100.0 engine;
  ignore (Wal.truncate_below wal ~lane:0 ~round:1);
  checki "nothing encoded before replay" 0 !calls;
  check_entries "replay" [ (0, "a"); (1, "b") ] (Wal.entries wal);
  checki "each record encoded once per replay" 2 !calls

(* Random durable appends interleaved with per-lane truncations: the
   retained entries are always the appends filtered by every truncation so
   far, in append order (so each lane keeps its own order), and
   [truncate_below] reports exactly what it removed. *)
let prop_wal_retention_is_the_filter =
  let op =
    QCheck.(
      map
        (fun (trunc, lane, round) -> if trunc then `Truncate (lane, round) else `Append (lane, round))
        (triple (frequency [ (1, always true); (3, always false) ]) (int_bound 2) (int_bound 30)))
  in
  QCheck.Test.make ~name:"wal retention is the round filter" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 80) op)
    (fun ops ->
      let engine = Engine.create () in
      let wal = Wal.create ~timers:(Shoalpp_backend.Backend_sim.timers engine) ~sync_latency_ms:0.0 ~retain:true () in
      let model = ref [] (* (lane, round, id), oldest first *) in
      List.iteri
        (fun id -> function
          | `Append (lane, round) ->
            Wal.append wal ~entry:(entry ~lane ~round (string_of_int id)) (fun () -> ());
            Engine.run ~until:(Engine.now engine +. 1.0) engine;
            model := !model @ [ (lane, round, id) ]
          | `Truncate (lane, round) ->
            let keep, dropped = List.partition (fun (l, r, _) -> l <> lane || r >= round) !model in
            model := keep;
            if Wal.truncate_below wal ~lane ~round <> List.length dropped then
              QCheck.Test.fail_report "truncate_below miscounted")
        ops;
      Wal.entries wal = List.map (fun (l, _, id) -> (l, string_of_int id)) !model)

(* ------------------------------------------------------------------ *)
(* Checkpoint certification: roundtrip, forgery refusal.               *)

let cluster_seed = 77
let n = 4
let keys = Signer.registry ~cluster_seed ~n

let candidate =
  Checkpoint.candidate ~seq:41
    ~lanes:
      [
        { Checkpoint.dag_id = 0; round = 14; resume = "blob0" };
        { Checkpoint.dag_id = 1; round = 13; resume = "blob1" };
        { Checkpoint.dag_id = 2; round = 13; resume = "" };
      ]
    ~state:(Digest32.of_string "state-after-42-segments")

let votes_for c signers =
  List.map
    (fun r ->
      let kp = Signer.keygen ~cluster_seed ~replica:r in
      (Signer.public kp, Checkpoint.sign kp c))
    signers

let test_checkpoint_roundtrip () =
  let ck = Checkpoint.certify ~n candidate (votes_for candidate [ 0; 1; 3 ]) in
  checkb "fresh cert verifies" true (Checkpoint.verify ~keys ~quorum:3 ck);
  let ck' = Checkpoint.decode ~n (Checkpoint.encode ck) in
  checki "seq roundtrips" (Checkpoint.seq ck) (Checkpoint.seq ck');
  checkb "state roundtrips" true (Digest32.equal (Checkpoint.state ck) (Checkpoint.state ck'));
  checkb "lanes roundtrip" true (Checkpoint.lanes ck = Checkpoint.lanes ck');
  checkb "decoded cert verifies" true (Checkpoint.verify ~keys ~quorum:3 ck');
  (* wire_size models transport cost (candidate + a 48-byte BLS aggregate
     + bitmap); the encoding carries a 32-byte aggregate and a short signer
     list, so it is never larger. *)
  checkb "wire size covers encoding" true
    (Checkpoint.wire_size ck >= String.length (Checkpoint.encode ck))

(* The digest is stored at construction, not recomputed: it must still be
   the hash of the candidate's encoding, for a built candidate and for one
   that came off the wire. *)
let test_checkpoint_digest_stored () =
  let hashes_encoding label c =
    checkb label true
      (Digest32.equal (Checkpoint.digest c)
         (Digest32.of_string (Checkpoint.encode_candidate c)))
  in
  hashes_encoding "constructed digest = hash of encoding" candidate;
  let ck = Checkpoint.certify ~n candidate (votes_for candidate [ 0; 1; 3 ]) in
  let decoded =
    Checkpoint.candidate_of (Checkpoint.decode ~n (Checkpoint.encode ck))
  in
  hashes_encoding "decoded digest = hash of encoding" decoded;
  checkb "decode keeps the digest" true
    (Digest32.equal (Checkpoint.digest decoded) (Checkpoint.digest candidate));
  checkb "preimage is the tag over the stored digest" true
    (String.equal (Checkpoint.preimage candidate)
       (Checkpoint.preimage_of_digest (Checkpoint.digest candidate)))

(* The running commit-stream digest's preimage is the previous digest's
   raw bytes, then "dag/round/author" in decimal — any other byte would
   change every checkpoint digest. *)
let test_checkpoint_fold_segment_bytes () =
  let st = Digest32.of_string "stream" in
  List.iter
    (fun (dag_id, round, author) ->
      let reference =
        Digest32.of_string (Printf.sprintf "%s%d/%d/%d" (Digest32.raw st) dag_id round author)
      in
      checkb
        (Printf.sprintf "fold %d/%d/%d" dag_id round author)
        true
        (Digest32.equal reference (Checkpoint.fold_segment st ~dag_id ~round ~author)))
    [
      (0, 0, 0); (2, 9, 10); (1, 99, 100); (0, 1600, 7); (9, 123_456_789, 49); (3, max_int, 0);
      (-1, -10, min_int); (10, -99, 9);
    ]

(* A checkpoint whose certificate does not verify must never authorize
   pruning — these are the refusal cases [Replica]'s adopt/install paths
   gate on. *)
let test_checkpoint_forgery_refused () =
  (* Votes cast over a different candidate (wrong digest): the aggregate
     cannot verify against the claimed one, whichever field differs. *)
  let c = candidate in
  let lane0 = List.hd c.Checkpoint.lanes in
  List.iter
    (fun (label, other) ->
      checkb (label ^ ": digest differs") false
        (Digest32.equal (Checkpoint.digest other) (Checkpoint.digest c));
      let forged = Checkpoint.certify ~n c (votes_for other [ 0; 1; 3 ]) in
      checkb (label ^ ": cert refused") false (Checkpoint.verify ~keys ~quorum:3 forged))
    [
      ( "tampered seq",
        Checkpoint.candidate ~seq:(c.Checkpoint.seq + 1) ~lanes:c.Checkpoint.lanes
          ~state:c.Checkpoint.state );
      ( "tampered lane",
        Checkpoint.candidate ~seq:c.Checkpoint.seq
          ~lanes:({ lane0 with Checkpoint.round = lane0.Checkpoint.round + 1 }
                  :: List.tl c.Checkpoint.lanes)
          ~state:c.Checkpoint.state );
      ( "tampered state",
        Checkpoint.candidate ~seq:c.Checkpoint.seq ~lanes:c.Checkpoint.lanes
          ~state:(Digest32.of_string "another-stream") );
    ];
  (* Sub-quorum signer bitmap. *)
  let thin = Checkpoint.certify ~n candidate (votes_for candidate [ 0; 2 ]) in
  checkb "sub-quorum cert refused" false (Checkpoint.verify ~keys ~quorum:3 thin);
  (* A signer outside the registry is rejected at aggregation. *)
  checkb "out-of-range signer rejected" true
    (match Checkpoint.certify ~n candidate (votes_for candidate [ 0; 1; 9 ]) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* A peer's checkpoint blob is untrusted: a signer id the committee does not
   have, or one named twice, must surface as [Malformed] — the only exception
   the replica's adoption and WAL-recovery paths catch — never as
   [Invalid_argument] from aggregation. *)
let blob_with_signers signers =
  let w = Wire.Writer.create () in
  Wire.Writer.list w (fun s -> Wire.Writer.uint w s) signers;
  Wire.Writer.raw w (String.make 32 'a');
  Checkpoint.encode_candidate candidate ^ Wire.Writer.contents w

let test_checkpoint_decode_bad_signers () =
  let decodes signers =
    match Checkpoint.decode ~n (blob_with_signers signers) with
    | _ -> `Decoded
    | exception Wire.Reader.Malformed _ -> `Malformed
  in
  checkb "well-formed blob decodes" true (decodes [ 0; 1; 3 ] = `Decoded);
  checkb "signer id = n is malformed" true (decodes [ 0; 1; n ] = `Malformed);
  checkb "signer id > n is malformed" true (decodes [ 0; 1; 9 ] = `Malformed);
  checkb "duplicate signer is malformed" true (decodes [ 0; 1; 1 ] = `Malformed)

(* ------------------------------------------------------------------ *)
(* Store: logical floor vs retain-gated physical floor.                *)

let committee = Committee.make ~n ~cluster_seed ()

let make_batch ids =
  Batch.make
    ~txns:(List.map (fun id -> Transaction.make ~id ~submitted_at:0.0 ~origin:0 ()) ids)
    ~created_at:0.0

let make_certified ~round ~author =
  let batch = make_batch [] in
  let digest =
    Types.node_digest ~lane:0 ~round ~author ~batch_digest:batch.Batch.digest ~parents:[]
      ~weak_parents:[]
  in
  let kp = Committee.keypair committee author in
  let node =
    {
      Types.round;
      author;
      batch;
      parents = [];
      weak_parents = [];
      digest;
      signature = Signer.sign kp (Digest32.raw digest);
      created_at = 0.0;
    }
  in
  let preimage = Types.vote_preimage ~lane:0 ~round ~author ~digest in
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

let filled_store ~rounds =
  let store = Store.create ~n ~genesis_digest:(Digest32.of_string "genesis") in
  for round = 0 to rounds - 1 do
    for author = 0 to n - 1 do
      let cn = make_certified ~round ~author in
      ignore (Store.note_proposal store cn.Types.cn_node);
      ignore (Store.add_certified store cn)
    done
  done;
  store

let checkp = Alcotest.(check (pair int int))

(* Each round of [filled_store] holds n certified nodes and their n
   proposals; a sweep drops both and reports (nodes, proposals). *)
let test_store_retain_gate () =
  (* No gate: pruning deletes immediately (the pre-checkpoint behavior). *)
  let plain = filled_store ~rounds:6 in
  checkp "ungated prune deletes" (3 * n, 3 * n) (Store.prune_below plain ~round:3);
  checki "ungated floors coincide" 3 (Store.lowest_stored plain);
  (* Gate at 0 (installed at startup when checkpointing is on): the
     logical floor advances, physical deletion is deferred. *)
  let gated = filled_store ~rounds:6 in
  checkp "gate install sweeps nothing" (0, 0) (Store.set_retain_gate gated ~round:0);
  checkp "gated prune deletes nothing" (0, 0) (Store.prune_below gated ~round:3);
  checki "logical floor advanced" 3 (Store.lowest_retained gated);
  checki "physical floor held" 0 (Store.lowest_stored gated);
  checkb "gated rounds still serveable" true (Store.nodes_at gated ~round:1 <> []);
  let first = (make_certified ~round:1 ~author:0).Types.cn_node in
  checkb "and their proposals" true (Option.is_some (Store.proposal gated (Types.ref_of_node first)));
  (* Raising the gate (a checkpoint certified) sweeps the deferred rounds. *)
  checkp "gate raise sweeps deferred rounds" (2 * n, 2 * n) (Store.set_retain_gate gated ~round:2);
  checkb "proposals go with their round" true
    (Option.is_none (Store.proposal gated (Types.ref_of_node first)));
  checki "physical floor at gate" 2 (Store.lowest_stored gated);
  (* The gate never deletes above the logical floor, even when the
     certified frontier is ahead of it. *)
  checkp "gate beyond floor sweeps to floor only" (n, n) (Store.set_retain_gate gated ~round:5);
  checki "physical floor capped at logical" 3 (Store.lowest_stored gated);
  checkb "rounds above logical floor intact" true (Store.nodes_at gated ~round:3 <> [])

(* ------------------------------------------------------------------ *)
(* Sync protocol: paging, floors, O(gap) requests, peer rotation.      *)

(* A first page: open-ended, from [from]. *)
let first_page ~from = Types.Get_certificates_in_range { sr_from = from; sr_to = max_int; sr_cursor = from }

let page_of = function
  | Types.Certificates { sc_certs; sc_has_more; sc_next; sc_highest } ->
    (sc_certs, sc_has_more, sc_next, sc_highest)
  | Types.Checkpoint_blob _ -> Alcotest.fail "expected Certificates"

let rounds_of certs =
  List.sort_uniq Int.compare (List.map (fun cn -> cn.Types.cn_node.Types.round) certs)

let test_sync_server_pages_whole_rounds () =
  let store = filled_store ~rounds:10 in
  let server = Sync.Server.create ~page:8 ~store ~checkpoint:(fun () -> Some "ckblob") () in
  let certs, has_more, next, highest =
    page_of
      (Sync.Server.handle server
         (Types.Get_certificates_in_range { sr_from = 4; sr_to = 9; sr_cursor = 4 }))
  in
  checki "page holds whole rounds" 8 (List.length certs);
  checkb "more to come" true has_more;
  checki "cursor is a round number" 6 next;
  checki "the responder's highest round rides on the page" 9 highest;
  match Sync.Server.handle server Types.Get_checkpoint with
  | Types.Checkpoint_blob { cb_blob } ->
    Alcotest.(check (option string)) "checkpoint blob served" (Some "ckblob") cb_blob
  | _ -> Alcotest.fail "expected Checkpoint_blob"

let test_sync_server_respects_physical_floor () =
  let store = filled_store ~rounds:10 in
  ignore (Store.set_retain_gate store ~round:0);
  ignore (Store.prune_below store ~round:4);
  let server = Sync.Server.create ~store ~checkpoint:(fun () -> None) () in
  let first () = page_of (Sync.Server.handle server (first_page ~from:0)) in
  (* Gate defers deletion: the logically-pruned window is still served. *)
  let certs, _, _, _ = first () in
  checki "serves gated window" 0 (List.hd (rounds_of certs));
  ignore (Store.set_retain_gate store ~round:4);
  let certs, has_more, _, highest = first () in
  Alcotest.(check (list int)) "floor after sweep" [ 4; 5; 6; 7; 8; 9 ] (rounds_of certs);
  checkb "one page" false has_more;
  checki "highest" 9 highest

(* A one-lane catch-up loop whose peers all answer from [server] at once,
   [between] running after each answer (the cluster moving on between
   pages). The adopt phase ends on the first answer and the lane pages
   from [from]; [sent] logs (destination, request), newest first. *)
type sync_run = {
  client : Sync.Client.t;
  sent : (int * Types.sync_request) list ref;
  ingested : Types.certified_node list ref;
  caught_up : int ref;
}

let sync_run ?(answer = true) ?(between = ignore) ~server ~from () =
  let client = ref None in
  let sent = ref [] and ingested = ref [] and caught_up = ref 0 in
  let hooks =
    {
      Sync.Client.send =
        (fun ~dst ~lane req ->
          sent := (dst, req) :: !sent;
          if answer then begin
            let resp = Sync.Server.handle server req in
            between ();
            Sync.Client.handle_response (Option.get !client) ~lane resp
          end);
      schedule = (fun ~after:_ _ -> () (* no silence: retries never fire *));
      adopt = (fun _ -> true);
      replay = (fun () -> [| from |]);
      ingest = (fun ~lane:_ cn -> ingested := cn :: !ingested);
      on_caught_up = (fun () -> incr caught_up);
    }
  in
  let c = Sync.Client.create ~n ~self:0 ~lanes:1 hooks in
  client := Some c;
  { client = c; sent; ingested; caught_up }

let pages run =
  List.filter (function _, Types.Get_certificates_in_range _ -> true | _ -> false) !(run.sent)

let test_sync_client_o_gap_requests () =
  let store = filled_store ~rounds:10 in
  let server = Sync.Server.create ~page:8 ~store ~checkpoint:(fun () -> None) () in
  let run = sync_run ~server ~from:4 () in
  Sync.Client.start run.client;
  checki "caught up once" 1 !(run.caught_up);
  checkb "no longer active" false (Sync.Client.active run.client);
  (* Gap = rounds 4..9 (24 certs): 3 pages of 8, the first carrying the
     target — O(gap), not O(history), with no round probe. *)
  checki "pages are O(gap)" 3 (List.length (pages run));
  checki "one checkpoint request, then the pages" 4 (Sync.Client.requests_sent run.client);
  checki "exactly the gap ingested" 24 (List.length !(run.ingested));
  checki "client counts ingests" 24 (Sync.Client.certs_ingested run.client)

(* The first page asked from below the peer's physical floor starts at the
   floor: the rounds below are vouched for by its certified checkpoint. *)
let test_sync_first_page_from_floor () =
  let store = filled_store ~rounds:10 in
  ignore (Store.set_retain_gate store ~round:6);
  ignore (Store.prune_below store ~round:6);
  let server = Sync.Server.create ~page:8 ~store ~checkpoint:(fun () -> None) () in
  let run = sync_run ~server ~from:0 () in
  Sync.Client.start run.client;
  checki "caught up" 1 !(run.caught_up);
  Alcotest.(check (list int)) "from the floor to the top" [ 6; 7; 8; 9 ] (rounds_of !(run.ingested));
  checki "two pages" 2 (List.length (pages run))

let test_sync_client_rotates_on_no_progress () =
  let server = Sync.Server.create ~store:(filled_store ~rounds:1) ~checkpoint:(fun () -> None) () in
  let run = sync_run ~answer:false ~server ~from:0 () in
  Sync.Client.start run.client;
  (match !(run.sent) with
  | [ (dst, Types.Get_checkpoint) ] -> checki "checkpoint asked of the first peer" 1 dst
  | _ -> Alcotest.fail "expected one checkpoint request");
  Sync.Client.handle_response run.client ~lane:0 (Types.Checkpoint_blob { cb_blob = None });
  (match !(run.sent) with
  | (dst, Types.Get_certificates_in_range { sr_to; _ }) :: _ ->
    checki "first page to the same peer" 1 dst;
    checki "first page open-ended" max_int sr_to
  | _ -> Alcotest.fail "expected a first page");
  Sync.Client.handle_response run.client ~lane:0
    (Types.Certificates { sc_certs = []; sc_has_more = true; sc_next = 5; sc_highest = 9 });
  (* A page that advances nothing: the responder pruned the range or lags;
     the client must rotate to another peer rather than loop. *)
  Sync.Client.handle_response run.client ~lane:0
    (Types.Certificates { sc_certs = []; sc_has_more = true; sc_next = 0; sc_highest = 12 });
  match !(run.sent) with
  | (dst, Types.Get_certificates_in_range { sr_to; sr_cursor; _ }) :: _ ->
    checki "rotated to next peer" 2 dst;
    checki "cursor kept" 5 sr_cursor;
    checki "target pinned by the first page" 9 sr_to
  | _ -> Alcotest.fail "expected a re-sent range request"

(* Catch-up ends whether the cluster makes rounds faster or slower than
   the pages arrive: after every answer the peer's store gains [grow]
   rounds, and the client still finishes at the first page's highest
   round, with every certificate up to it ingested. *)
let prop_sync_ends_at_pinned_target =
  QCheck.Test.make ~name:"sync ends at the pinned target" ~count:200
    QCheck.(quad (int_range 1 12) (int_range 0 12) (int_range 0 4) (int_range 1 16))
    (fun (rounds, from, grow, page) ->
      let store = filled_store ~rounds in
      let top = ref (rounds - 1) in
      let between () =
        for _ = 1 to grow do
          incr top;
          for author = 0 to n - 1 do
            ignore (Store.add_certified store (make_certified ~round:!top ~author))
          done
        done
      in
      let server = Sync.Server.create ~page ~store ~checkpoint:(fun () -> None) () in
      let run = sync_run ~between ~server ~from () in
      Sync.Client.start run.client;
      (* The checkpoint answer came first; the first page was served
         after the store's first growth. *)
      let target = rounds - 1 + grow in
      let want = List.init (max 0 (target - from + 1)) (fun i -> from + i) in
      let got = rounds_of !(run.ingested) in
      let every_author =
        List.for_all
          (fun r ->
            List.length (List.filter (fun cn -> cn.Types.cn_node.Types.round = r) !(run.ingested))
            >= n)
          want
      in
      if !(run.caught_up) <> 1 then QCheck.Test.fail_report "did not finish exactly once"
      else if not (List.for_all (fun r -> List.mem r got) want && every_author) then
        QCheck.Test.fail_report "a certificate up to the target is missing"
      else if List.exists (fun r -> r > target) got then QCheck.Test.fail_report "paged past the target"
      else true)

(* ------------------------------------------------------------------ *)
(* End-to-end: checkpointed crash-recover restarts from the latest
   certified checkpoint and catches up in O(gap) sync messages.        *)

let test_checkpointed_crash_recover () =
  let committee = Committee.make ~n:4 ~cluster_seed:9 () in
  let protocol =
    Config.with_checkpoint_interval
      (Config.without_signature_checks (Config.shoalpp ~committee))
      12
  in
  let setup =
    {
      (Cluster.default_setup ~protocol) with
      Cluster.topology = Topology.clique ~regions:2 ~one_way_ms:20.0;
      scenario = Faults.crash_recover ~count:1 ~at:3_000.0 ~recover_at:8_000.0 ();
      load_tps = 300.0;
      seed = 3;
    }
  in
  let cluster = Cluster.create setup in
  Cluster.run cluster ~duration_ms:14_000.0;
  let audit = Cluster.audit cluster in
  checkb "prefixes consistent" true audit.Cluster.consistent_prefixes;
  checki "no duplicate orders" 0 audit.Cluster.duplicate_orders;
  checkb "recovery prefix ok" true audit.Cluster.recovery_prefix_ok;
  let r = (Cluster.replicas cluster).(3) in
  checkb "restarted from a checkpoint, not genesis" true (Replica.base_seq r > 0);
  checkb "adopted checkpoint is certified" true
    (match Replica.latest_checkpoint r with
    | Some ck -> Checkpoint.verify ~keys:committee.Committee.keys ~quorum:(Committee.quorum committee) ck
    | None -> false);
  checkb "caught up" false (Replica.catching_up r);
  let requests, certs = Replica.sync_stats r in
  let lanes = List.length (Replica.driver_stats r) in
  checkb "sync ran on every lane" true (requests >= lanes);
  (* O(gap): a checkpoint request plus a handful of pages per lane — far
     below the full-history certificate count. *)
  checkb "requests O(gap)" true (requests <= 10 * lanes);
  checkb "certs ingested" true (certs > 0);
  let served =
    Array.fold_left (fun acc r -> acc + Replica.sync_requests_served r) 0 (Cluster.replicas cluster)
  in
  checkb "peers served the requests" true (served >= requests)

(* Total disk loss: replica 3 crashes and restarts with both WAL devices
   wiped, so only a peer's certified checkpoint, adopted through the
   catch-up loop, can give it a frontier. The restart goes through the
   run harness, whose audit checks the rebuilt log against the pre-crash
   one. *)
let test_wiped_restart_adopts_peer_checkpoint () =
  let committee = Committee.make ~n:4 ~cluster_seed:9 () in
  let protocol =
    Config.with_checkpoint_interval
      (Config.without_signature_checks (Config.shoalpp ~committee))
      12
  in
  let cluster =
    Cluster.create
      {
        (Cluster.default_setup ~protocol) with
        Cluster.topology = Topology.clique ~regions:2 ~one_way_ms:20.0;
        load_tps = 300.0;
        seed = 3;
      }
  in
  let h = Cluster.harness cluster in
  let at ms f = ignore (Shoalpp_backend.Backend.schedule_at (Cluster.backend cluster) ~at:ms f) in
  at 3_000.0 (fun () -> Harness.crash h 3);
  at 6_000.0 (fun () -> Harness.recover ~wipe:true h 3);
  Cluster.run cluster ~duration_ms:10_000.0;
  let r = (Cluster.replicas cluster).(3) in
  checkb "restarted from a peer's checkpoint" true (Replica.base_seq r > 0);
  checkb "the adopted checkpoint verifies" true
    (match Replica.latest_checkpoint r with
    | Some ck ->
      Checkpoint.verify ~keys:committee.Committee.keys ~quorum:(Committee.quorum committee) ck
    | None -> false);
  checkb "caught up" false (Replica.catching_up r);
  let requests, certs = Replica.sync_stats r in
  checkb "pages followed the checkpoint" true (requests > 1 && certs > 0);
  let audit = Cluster.audit cluster in
  checkb "recovery prefix ok" true audit.Cluster.recovery_prefix_ok;
  checkb "audit" true (Harness.ok audit)

(* The restarted replica must order again, whatever the lanes' phase. The
   setup is the node catch-up drill's (n=4, zero-delay links, 300 tx/s,
   interval 12, a crash at 3 s and a restart at 6 s) on the simulator,
   built through [Experiment] params, with the lanes starting together
   (a WAL cut at a point in time rather than at each lane's seam round
   dropped a leading lane's rounds above the restored checkpoint, and the
   replica stalled at its base). *)
let restart_twin ?net_config ~seed () =
  let params =
    {
      E.default_params with
      E.n = 4;
      load_tps = 300.0;
      duration_ms = 10_000.0;
      topology = Topology.uniform ~delay_ms:0.0;
      scenario = Faults.crash_recover ~count:1 ~at:3_000.0 ~recover_at:6_000.0 ();
      net_config;
      verify_signatures = false;
      checkpoint_interval = 12;
      seed;
    }
  in
  let cluster =
    Cluster.create
      {
        (Cluster.default_setup ~protocol:(E.dag_config E.Shoalpp params)) with
        Cluster.topology = params.E.topology;
        net_config = Option.value params.E.net_config ~default:Shoalpp_sim.Netmodel.default_config;
        scenario = params.E.scenario;
        load_tps = params.E.load_tps;
        warmup_ms = params.E.warmup_ms;
        seed;
      }
  in
  Cluster.run cluster ~duration_ms:params.E.duration_ms;
  let label =
    Printf.sprintf "%s noise, seed %d" (if Option.is_some net_config then "clean" else "default") seed
  in
  let replicas = Cluster.replicas cluster in
  let restarted = 3 in
  let ends = Array.map Replica.log_length replicas in
  let others = Array.fold_left min max_int (Array.sub ends 0 restarted) in
  checkb (label ^ ": audit") true (Harness.ok (Cluster.audit cluster));
  checkb (label ^ ": caught up") false (Replica.catching_up replicas.(restarted));
  (* A stalled replica sits at its base, hundreds of segments behind; one
     that orders again trails the others only by what is in flight. *)
  checkb
    (Printf.sprintf "%s: restarted log (base %d, end %d) reaches the others' common prefix %d"
       label (Replica.base_seq replicas.(restarted)) ends.(restarted) others)
    true
    (ends.(restarted) >= others - (2 * params.E.checkpoint_interval))

let test_restarted_replica_orders_again () =
  List.iter
    (fun seed -> restart_twin ~net_config:E.clean_net_config ~seed ())
    [ 3; 5; 8 ];
  restart_twin ~seed:5 ()

(* A replica's checkpoint vote carries exactly the digest and signature
   [Checkpoint] derives from the candidate: the stored digest changes no
   byte on the wire. Votes are captured off the simulator's control plane
   and checked against each replica's certified checkpoint. *)
let test_replica_vote_matches_sign () =
  let committee = Committee.make ~n:4 ~cluster_seed:9 () in
  let protocol =
    Config.with_checkpoint_interval
      (Config.without_signature_checks (Config.shoalpp ~committee))
      12
  in
  let world =
    Shoalpp_backend.Backend_sim.make
      ~topology:(Topology.clique ~regions:2 ~one_way_ms:20.0)
      ~assignment:(Array.init 4 (fun i -> i mod 2))
      ~fault:(Faults.schedule Faults.none ~n:4)
      ~config:Shoalpp_backend.Backend_sim.default_net_config ~seed:3 ()
  in
  let base = Shoalpp_backend.Backend_sim.backend world in
  let votes = Hashtbl.create 64 in
  let record (env : Replica.envelope) =
    match env.Replica.payload with
    | Types.Checkpoint_vote { ck_seq; ck_digest; ck_voter; ck_signature } ->
      Hashtbl.replace votes (ck_seq, ck_voter) (ck_digest, ck_signature)
    | _ -> ()
  in
  let tap (tr : Replica.envelope Shoalpp_backend.Backend.Transport.t) =
    {
      tr with
      Shoalpp_backend.Backend.Transport.broadcast =
        (fun ~src ~size ~include_self env ->
          record env;
          tr.Shoalpp_backend.Backend.Transport.broadcast ~src ~size ~include_self env);
    }
  in
  let backend =
    {
      base with
      Shoalpp_backend.Backend.transport = tap base.Shoalpp_backend.Backend.transport;
      control = Option.map tap base.Shoalpp_backend.Backend.control;
    }
  in
  let replicas =
    Array.init 4 (fun replica_id ->
        Replica.create ~config:protocol ~replica_id ~backend
          ~mempool:(Shoalpp_workload.Mempool.create ()) ())
  in
  Array.iter Replica.start replicas;
  Shoalpp_backend.Backend_sim.run ~until:4_000.0 world;
  Array.iter
    (fun r ->
      match Replica.latest_checkpoint r with
      | None -> Alcotest.fail "no certified checkpoint"
      | Some ck ->
        (* Rebuilt from the fields, so its digest is hashed afresh. *)
        let cand =
          Checkpoint.candidate ~seq:(Checkpoint.seq ck) ~lanes:(Checkpoint.lanes ck)
            ~state:(Checkpoint.state ck)
        in
        let voter = Replica.replica_id r in
        (match Hashtbl.find_opt votes (Checkpoint.seq ck, voter) with
        | None -> Alcotest.fail "replica sent no vote for its checkpoint"
        | Some (digest, signature) ->
          checkb "vote digest = Checkpoint.digest" true
            (Digest32.equal digest (Checkpoint.digest cand));
          Alcotest.(check string)
            "vote signature = Checkpoint.sign"
            (Signer.raw (Checkpoint.sign (Committee.keypair committee voter) cand))
            (Signer.raw signature)))
    replicas

(* ------------------------------------------------------------------ *)
(* The recovery-prefix audit over hand-built logs: a rebuilt log must
   extend the pre-crash log in global-sequence coordinates, and entries
   below its base (pruned under a checkpoint) are not re-checked.      *)

let test_recovery_audit_verdicts () =
  let seg r =
    {
      Harness.sdag = r mod 3;
      sround = r;
      sauthor = r mod 4;
      sdigest = Digest32.of_string (string_of_int r);
    }
  in
  let log ~from ~upto = Array.init (upto - from) (fun k -> seg (from + k)) in
  (* Replica 1 crashed at seq 10 (base 0) and recovered with [post]. *)
  let verdict ~post_base post =
    let a =
      Harness.audit_logs ~num_dags:3
        ~logs:[| log ~from:0 ~upto:20; post |]
        ~bases:[| 0; post_base |]
        ~pre_recovery:[| None; Some (0, log ~from:0 ~upto:10) |]
        ~duplicate_orders:0
    in
    a.Harness.recovery_prefix_ok
  in
  let diverged = log ~from:0 ~upto:20 in
  diverged.(7) <- { (seg 7) with Harness.sauthor = 3 - (seg 7).Harness.sauthor };
  checkb "diverges at one sequence number" false (verdict ~post_base:0 diverged);
  checkb "shorter than the pre-crash log" false (verdict ~post_base:0 (log ~from:0 ~upto:8));
  checkb "base above the pruned prefix" true (verdict ~post_base:6 (log ~from:6 ~upto:20));
  checkb "faithful replay" true (verdict ~post_base:0 (log ~from:0 ~upto:20));
  let a =
    Harness.audit_logs ~num_dags:3
      ~logs:[| log ~from:0 ~upto:20; log ~from:12 ~upto:18 |]
      ~bases:[| 0; 12 |] ~pre_recovery:[| None; None |] ~duplicate_orders:0
  in
  checkb "prefixes compared in global seqs" true a.Harness.consistent_prefixes;
  checki "prefix length is the shortest end" 18 a.Harness.prefix_length;
  checki "total segments is the longest end" 20 a.Harness.total_segments;
  checkb "ok" true (Harness.ok a);
  checkb "a duplicate fails ok" false (Harness.ok { a with Harness.duplicate_orders = 1 });
  (* Same (dag, round, author) at one sequence number, but a different
     anchor digest: an equivocated anchor, which the audit must catch. *)
  let twin = log ~from:0 ~upto:20 in
  twin.(9) <- { (seg 9) with Harness.sdigest = Digest32.of_string "twin" };
  let a =
    Harness.audit_logs ~num_dags:3 ~logs:[| log ~from:0 ~upto:20; twin |] ~bases:[| 0; 0 |]
      ~pre_recovery:[| None; None |] ~duplicate_orders:0
  in
  checkb "a differing anchor digest fails consistent prefixes" false a.Harness.consistent_prefixes

(* The realtime node restarts a replica through the same recovery path
   and the same audit as the simulated cluster: checkpoint restore, WAL
   replay, peer catch-up, then the recovery-prefix check. The 20 ms delay
   shim keeps rounds slow enough for catch-up to close the gap; over the
   zero-delay loopback the cluster outruns the syncing replica. *)
let test_node_restart_recovery_audit () =
  let committee = Committee.make ~n:4 ~cluster_seed:5 () in
  let protocol =
    Config.with_checkpoint_interval
      (Config.without_signature_checks (Config.shoalpp ~committee))
      12
  in
  let node =
    Node.create
      {
        (Node.default_setup ~protocol) with
        Node.load_tps = 300.0;
        seed = 5;
        delays_ms = Some (Topology.delay_matrix (Topology.uniform ~delay_ms:20.0) ~n:4);
        scenario = Faults.crash_recover ~at:1_000.0 ~recover_at:2_000.0 ();
      }
  in
  Node.run node ~duration_ms:4_000.0;
  let audit = Node.audit node in
  checkb "prefixes consistent" true audit.Node.consistent_prefixes;
  checki "no duplicate orders" 0 audit.Node.duplicate_orders;
  checkb "recovered log extends its pre-crash log" true audit.Node.recovery_prefix_ok;
  let r = (Node.replicas node).(3) in
  checkb "caught up" false (Node.catching_up node 3);
  checkb "restarted replica orders again" true (Replica.log_length r > Replica.base_seq r)

(* The node realizes a scenario's restarts and nothing else: a partition
   is refused, and so is a restart on the multicore node. *)
let test_node_refuses_unrealizable_scenarios () =
  let protocol = Config.shoalpp ~committee:(Committee.make ~n:4 ()) in
  let refused name setup =
    match Node.create setup with
    | _ -> Alcotest.failf "%s: Node.create accepted the scenario" name
    | exception Invalid_argument _ -> ()
  in
  let setup = Node.default_setup ~protocol in
  refused "partition" { setup with Node.scenario = Faults.partition () };
  refused "restart at domains = 2"
    { setup with Node.scenario = Faults.crash_recover (); domains = 2 };
  checkb "a restart at domains = 1 is accepted" true
    (Node.check_scenario ~domains:1 (Faults.crash_recover ()) = Ok ())

(* ------------------------------------------------------------------ *)
(* Golden determinism: the ordered commit stream is byte-identical with
   checkpointing/pruning on vs off at the same seed.                   *)

let commit_stream events =
  List.filter_map
    (fun (ev : Trace.event) ->
      match ev.Trace.kind with
      | Trace.Segment_interleaved { global_seq; round; anchor; txns } ->
        Some (ev.Trace.replica, ev.Trace.instance, global_seq, round, anchor, txns)
      | _ -> None)
    events

let test_golden_determinism_on_vs_off () =
  let params interval =
    {
      E.default_params with
      E.n = 4;
      load_tps = 300.0;
      duration_ms = 8_000.0;
      warmup_ms = 1_000.0;
      topology = Topology.clique ~regions:2 ~one_way_ms:20.0;
      verify_signatures = false;
      checkpoint_interval = interval;
      seed = 11;
      trace = true;
      trace_capacity = 2_000_000;
    }
  in
  let on = E.run E.Shoalpp (params 12) in
  let off = E.run E.Shoalpp (params 0) in
  checkb "both audits pass" true (on.E.audit_ok && off.E.audit_ok);
  let son = commit_stream on.E.events and soff = commit_stream off.E.events in
  checkb "streams non-empty" true (son <> []);
  checki "same length" (List.length soff) (List.length son);
  checkb "commit streams identical" true (son = soff);
  (* Pruning actually ran in the checkpointed run. *)
  let snap = on.E.report.Shoalpp_runtime.Report.telemetry in
  checkb "checkpoints certified" true (Telemetry.snap_counter snap "ck.certified" > 0);
  checkb "vertices pruned" true (Telemetry.snap_counter snap "gc.pruned_vertices" > 0)

let suite =
  [
    ( "storage.lifecycle",
      [
        Alcotest.test_case "wal leading lane keeps its rounds" `Quick test_wal_leading_lane_keeps_its_rounds;
        Alcotest.test_case "wal in-flight append survives truncation" `Quick
          test_wal_inflight_survives_truncation;
        Alcotest.test_case "wal payload encoded on replay" `Quick test_wal_payload_encoded_on_replay;
        QCheck_alcotest.to_alcotest prop_wal_retention_is_the_filter;
        Alcotest.test_case "checkpoint roundtrip" `Quick test_checkpoint_roundtrip;
        Alcotest.test_case "checkpoint digest stored" `Quick test_checkpoint_digest_stored;
        Alcotest.test_case "checkpoint fold bytes" `Quick test_checkpoint_fold_segment_bytes;
        Alcotest.test_case "forged checkpoint refused" `Quick test_checkpoint_forgery_refused;
        Alcotest.test_case "checkpoint blob with bad signers is malformed" `Quick
          test_checkpoint_decode_bad_signers;
        Alcotest.test_case "store retain gate" `Quick test_store_retain_gate;
        Alcotest.test_case "sync server pages whole rounds" `Quick test_sync_server_pages_whole_rounds;
        Alcotest.test_case "sync server respects physical floor" `Quick test_sync_server_respects_physical_floor;
        Alcotest.test_case "sync client O(gap) requests" `Quick test_sync_client_o_gap_requests;
        Alcotest.test_case "sync client rotates on no-progress" `Quick test_sync_client_rotates_on_no_progress;
        Alcotest.test_case "sync first page starts at the floor" `Quick test_sync_first_page_from_floor;
        QCheck_alcotest.to_alcotest prop_sync_ends_at_pinned_target;
        Alcotest.test_case "checkpointed crash-recover" `Slow test_checkpointed_crash_recover;
        Alcotest.test_case "restarted replica orders again" `Slow test_restarted_replica_orders_again;
        Alcotest.test_case "wiped restart adopts a peer's checkpoint" `Slow
          test_wiped_restart_adopts_peer_checkpoint;
        Alcotest.test_case "replica vote = Checkpoint.sign" `Quick test_replica_vote_matches_sign;
        Alcotest.test_case "recovery audit verdicts" `Quick test_recovery_audit_verdicts;
        Alcotest.test_case "node restart: recovery audited" `Slow test_node_restart_recovery_audit;
        Alcotest.test_case "node refuses unrealizable scenarios" `Quick
          test_node_refuses_unrealizable_scenarios;
        Alcotest.test_case "determinism: checkpointing on vs off" `Slow test_golden_determinism_on_vs_off;
      ] );
  ]
