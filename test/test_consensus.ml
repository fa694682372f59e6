(* Tests for the consensus layer: reputation determinism and exclusion,
   anchor schedules, and the ordering driver's three commit rules (fast,
   direct, indirect) plus the skip logic — all over hand-constructed DAG
   stores so that every scenario is exact. *)

module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store
module Committee = Shoalpp_dag.Committee
module Reputation = Shoalpp_consensus.Reputation
module Anchors = Shoalpp_consensus.Anchors
module Driver = Shoalpp_consensus.Driver

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let committee = Committee.make ~n:4 ~cluster_seed:66 ()

(* ------------------------------------------------------------------ *)
(* Reputation *)

let test_reputation_cold_start_all () =
  let r = Reputation.create ~n:4 ~enabled:true () in
  checki "all eligible" 4 (List.length (Reputation.eligible r ~round:1 ~slot:1));
  (* Rotation differs by slot. *)
  checkb "slots rotate" true
    (Reputation.eligible r ~round:1 ~slot:1 <> Reputation.eligible r ~round:1 ~slot:2)

let test_reputation_disabled_round_robin () =
  let r = Reputation.create ~n:4 ~enabled:false () in
  Alcotest.(check (list int)) "slot 0" [ 0; 1; 2; 3 ] (Reputation.eligible r ~round:5 ~slot:0);
  Alcotest.(check (list int)) "slot 2" [ 2; 3; 0; 1 ] (Reputation.eligible r ~round:5 ~slot:2)

let test_reputation_supporters_vs_stragglers () =
  let r = Reputation.create ~n:4 ~staleness:3 ~enabled:true () in
  (* Authors 0-2 support every anchor through round 10; author 3's nodes
     are only swept into histories late (never a supporter). *)
  for round = 1 to 10 do
    Reputation.observe_segment r ~anchor_round:round ~supporters:[ 0; 1; 2 ]
      ~node_positions:[ (round, 0); (round, 1); (round - 1, 2); (round - 4, 3) ]
  done;
  checkb "supporter active" true (Reputation.is_active r ~round:11 0);
  checkb "straggler inactive" false (Reputation.is_active r ~round:11 3);
  let eligible = Reputation.eligible r ~round:11 ~slot:11 in
  checkb "straggler excluded" false (List.mem 3 eligible);
  checki "three eligible" 3 (List.length eligible)

let test_reputation_recovers () =
  let r = Reputation.create ~n:4 ~staleness:3 ~enabled:true () in
  for round = 1 to 5 do
    Reputation.observe_segment r ~anchor_round:round ~supporters:[ 0; 1; 2 ]
      ~node_positions:[ (round, 0); (round, 1); (round, 2) ]
  done;
  checkb "3 excluded" false (List.mem 3 (Reputation.eligible r ~round:6 ~slot:6));
  (* Author 3 supports an anchor again. *)
  Reputation.observe_segment r ~anchor_round:6 ~supporters:[ 3 ] ~node_positions:[ (6, 3) ];
  checkb "3 restored" true (List.mem 3 (Reputation.eligible r ~round:7 ~slot:7))

let test_reputation_scores_order () =
  let r = Reputation.create ~n:4 ~enabled:true () in
  (* Author 2 supports twice as often. *)
  for round = 1 to 8 do
    Reputation.observe_segment r ~anchor_round:round
      ~supporters:(2 :: (if round mod 2 = 0 then [ 0; 1; 3 ] else []))
      ~node_positions:[]
  done;
  (match Reputation.eligible r ~round:9 ~slot:9 with
  | best :: _ -> checki "highest score first" 2 best
  | [] -> Alcotest.fail "empty");
  checkb "score visible" true (Reputation.score r 2 > Reputation.score r 0)

let test_reputation_window_eviction () =
  let r = Reputation.create ~n:4 ~window:4 ~enabled:true () in
  for round = 1 to 4 do
    Reputation.observe_segment r ~anchor_round:round ~supporters:[ 0 ]
      ~node_positions:[ (round, 0) ]
  done;
  checki "score in window" 4 (Reputation.score r 0);
  for round = 5 to 8 do
    Reputation.observe_segment r ~anchor_round:round ~supporters:[ 1 ]
      ~node_positions:[ (round, 1) ]
  done;
  checki "old segments evicted" 0 (Reputation.score r 0)

let test_reputation_duplicate_supporters_once () =
  let r = Reputation.create ~n:4 ~enabled:true () in
  Reputation.observe_segment r ~anchor_round:1 ~supporters:[ 2; 2; 2 ] ~node_positions:[];
  checki "dedup" 1 (Reputation.score r 2)

let test_reputation_determinism () =
  let feed r =
    for round = 1 to 6 do
      Reputation.observe_segment r ~anchor_round:round
        ~supporters:[ round mod 4; (round + 1) mod 4 ]
        ~node_positions:[ (round, round mod 4); (round - 1, (round + 1) mod 4) ]
    done
  in
  let a = Reputation.create ~n:4 ~enabled:true () in
  let b = Reputation.create ~n:4 ~enabled:true () in
  feed a;
  feed b;
  for round = 7 to 10 do
    Alcotest.(check (list int))
      "same vectors"
      (Reputation.eligible a ~round ~slot:round)
      (Reputation.eligible b ~round ~slot:round)
  done

(* ------------------------------------------------------------------ *)
(* Anchors *)

let test_anchor_modes () =
  let r = Reputation.create ~n:4 ~enabled:false () in
  checki "round 0 never anchored" 0 (List.length (Anchors.candidates Anchors.All_eligible r ~round:0));
  checki "bullshark even round empty" 0
    (List.length (Anchors.candidates Anchors.Every_other_round r ~round:2));
  checki "bullshark odd round single" 1
    (List.length (Anchors.candidates Anchors.Every_other_round r ~round:3));
  checki "shoal single" 1 (List.length (Anchors.candidates Anchors.One_per_round r ~round:2));
  checki "shoal++ all" 4 (List.length (Anchors.candidates Anchors.All_eligible r ~round:2))

let test_bullshark_anchor_rotation_covers_all () =
  let r = Reputation.create ~n:4 ~enabled:false () in
  let anchors =
    List.filter_map
      (fun round ->
        match Anchors.candidates Anchors.Every_other_round r ~round with
        | [ a ] -> Some a
        | _ -> None)
      [ 1; 3; 5; 7 ]
  in
  Alcotest.(check (list int)) "round-robin over all replicas" [ 0; 1; 2; 3 ]
    (List.sort compare anchors)

let test_instance_anchor_is_head () =
  let r = Reputation.create ~n:4 ~enabled:false () in
  checki "head of rotation" (5 mod 4) (Anchors.instance_anchor r ~round:5)

(* ------------------------------------------------------------------ *)
(* Driver *)

(* Hand-built DAG machinery (shared with test_dag via local copies). *)
let make_node ?(weak_parents = []) ~round ~author ~parents () =
  let batch = Shoalpp_workload.Batch.empty ~created_at:0.0 in
  let digest =
    Types.node_digest ~round ~author
      ~batch_digest:batch.Shoalpp_workload.Batch.digest ~parents ~weak_parents
  in
  let kp = Committee.keypair committee author in
  {
    Types.round;
    author;
    batch;
    parents;
    weak_parents;
    digest;
    signature = Shoalpp_crypto.Signer.sign kp (Shoalpp_crypto.Digest32.raw digest);
    created_at = 0.0;
  }

let certify node =
  let preimage =
    Types.vote_preimage ~round:node.Types.round ~author:node.Types.author
      ~digest:node.Types.digest
  in
  let sigs =
    List.init 3 (fun i -> (i, Shoalpp_crypto.Signer.sign (Committee.keypair committee i) preimage))
  in
  {
    Types.cn_node = node;
    cn_cert =
      { Types.cert_ref = Types.ref_of_node node; multisig = Shoalpp_crypto.Multisig.aggregate ~n:4 sigs };
  }

type dctx = {
  store : Store.t;
  driver : Driver.t;
  mutable segments : Driver.segment list; (* newest first *)
}

let make_driver ?(mode = Anchors.All_eligible) ?(fast = true) ?(reputation = false) () =
  let store = Store.create ~n:4 ~genesis_digest:committee.Committee.genesis in
  let ctx = ref None in
  let cfg =
    {
      (Driver.default_config ~committee) with
      Driver.mode;
      fast_commit = fast;
      reputation_enabled = reputation;
    }
  in
  let driver =
    Driver.create cfg
      {
        Driver.now = (fun () -> 0.0);
        cert_ref =
          (fun ~round ~author ->
            Option.map
              (fun cn -> Types.ref_of_node cn.Types.cn_node)
              (Store.get store ~round ~author));
        request_fetch = (fun _ -> ());
        on_segment =
          (fun s ->
            match !ctx with Some c -> c.segments <- s :: c.segments | None -> ());
        request_gc = (fun ~round:_ -> ());
        direct_guard = None;
      }
      ~store
  in
  let c = { store; driver; segments = [] } in
  ctx := Some c;
  c

(* Insert a full certified round where each node references [parents]. Also
   note the proposals so weak votes accumulate. *)
let add_round ctx ~round ~parents ?(authors = [ 0; 1; 2; 3 ]) ?(note = true) () =
  let cns = List.map (fun author -> certify (make_node ~round ~author ~parents ())) authors in
  List.iter
    (fun cn ->
      if note then ignore (Store.note_proposal ctx.store cn.Types.cn_node);
      ignore (Store.add_certified ctx.store cn);
      Driver.notify ctx.driver)
    cns;
  List.map (fun cn -> Types.ref_of_node cn.Types.cn_node) cns

let segment_anchors ctx =
  List.rev_map
    (fun (s : Driver.segment) ->
      (s.Driver.anchor.Types.ref_round, s.Driver.anchor.Types.ref_author, s.Driver.kind))
    ctx.segments

let test_driver_fast_commit () =
  let ctx = make_driver () in
  let r0 = add_round ctx ~round:0 ~parents:[] () in
  let r1 = add_round ctx ~round:1 ~parents:r0 () in
  (* Round-2 proposals noted (weak votes) but NOT certified: only the fast
     rule can fire for round-1 anchors. *)
  List.iter
    (fun author ->
      ignore (Store.note_proposal ctx.store (make_node ~round:2 ~author ~parents:r1 ()));
      Driver.notify ctx.driver)
    [ 0; 1; 2 ];
  let anchors = segment_anchors ctx in
  checki "all four round-1 anchors fast-committed" 4 (List.length anchors);
  List.iter (fun (r, _, kind) ->
      checki "round" 1 r;
      checkb "fast" true (kind = Driver.Fast))
    anchors;
  (* Every segment's nodes are disjoint and cover round 0 + its anchor. *)
  let all_nodes =
    List.concat_map (fun (s : Driver.segment) -> s.Driver.nodes) ctx.segments
  in
  let positions =
    List.map (fun cn -> (cn.Types.cn_node.Types.round, cn.Types.cn_node.Types.author)) all_nodes
  in
  checki "8 nodes ordered exactly once" 8 (List.length (List.sort_uniq compare positions));
  checki "no duplicates" 8 (List.length positions)

let test_driver_fast_needs_fast_quorum () =
  let ctx = make_driver () in
  let r0 = add_round ctx ~round:0 ~parents:[] () in
  let r1 = add_round ctx ~round:1 ~parents:r0 () in
  (* Only 2 weak votes (f+1 = 2 < 2f+1 = 3): nothing commits. *)
  List.iter
    (fun author ->
      ignore (Store.note_proposal ctx.store (make_node ~round:2 ~author ~parents:r1 ()));
      Driver.notify ctx.driver)
    [ 0; 1 ];
  checki "no commit below fast quorum" 0 (List.length ctx.segments)

let test_driver_direct_commit_without_fast () =
  let ctx = make_driver ~fast:false () in
  let r0 = add_round ctx ~round:0 ~parents:[] () in
  let r1 = add_round ctx ~round:1 ~parents:r0 () in
  (* Certify only 2 round-2 nodes (= f+1): direct rule fires, fast is off. *)
  ignore (add_round ctx ~round:2 ~parents:r1 ~authors:[ 0; 1 ] ());
  let anchors = segment_anchors ctx in
  checkb "round-1 anchors committed" true (List.length anchors >= 4);
  List.iter (fun (_, _, kind) -> checkb "direct kind" true (kind = Driver.Direct))
    (List.filteri (fun i _ -> i < 4) anchors)

let test_driver_direct_needs_weak_quorum () =
  let ctx = make_driver ~fast:false () in
  let r0 = add_round ctx ~round:0 ~parents:[] () in
  let r1 = add_round ctx ~round:1 ~parents:r0 () in
  ignore (add_round ctx ~round:2 ~parents:r1 ~authors:[ 0 ] ());
  checki "one certified ref insufficient" 0 (List.length ctx.segments)

let test_driver_indirect_skip () =
  (* Round-1 candidate head is never referenced: rounds 2+ reference only a
     quorum that excludes it. The driver must resolve it via the indirect
     path and skip it, committing the instance anchor instead. *)
  let ctx = make_driver ~fast:false () in
  let r0 = add_round ctx ~round:0 ~parents:[] () in
  (* Head candidate for round 1 in disabled-reputation rotation is author
     1 (slot = round = 1). Build round 1 fully, but make rounds 2+ reference
     only authors 0,2,3 of round 1. *)
  let r1 = add_round ctx ~round:1 ~parents:r0 () in
  let r1_partial = List.filter (fun (r : Types.node_ref) -> r.Types.ref_author <> 1) r1 in
  let r2 = add_round ctx ~round:2 ~parents:r1_partial () in
  let r3 = add_round ctx ~round:3 ~parents:r2 () in
  let _r4 = add_round ctx ~round:4 ~parents:r3 () in
  let anchors = segment_anchors ctx in
  checkb "something committed" true (anchors <> []);
  (* Candidate (1,1) must never be an anchor of any segment. *)
  checkb "skipped candidate not an anchor" true
    (not (List.exists (fun (r, a, _) -> r = 1 && a = 1) anchors));
  (* Its node is also not in any causal history (nothing references it). *)
  let all_nodes =
    List.concat_map (fun (s : Driver.segment) -> s.Driver.nodes) ctx.segments
  in
  checkb "orphan not ordered" true
    (not
       (List.exists
          (fun cn -> cn.Types.cn_node.Types.round = 1 && cn.Types.cn_node.Types.author = 1)
          all_nodes));
  (* The other round-1 candidates (authors 0,2,3 — after the skip-to) and
     round-2+ anchors commit; ordering stats reflect at least one skip. *)
  let stats = Driver.stats ctx.driver in
  checkb "skip recorded" true (stats.Driver.skipped_anchors > 0)

let test_driver_two_replicas_agree () =
  (* Replay the same DAG into two drivers with different notify timings:
     the ordered logs must be identical (Property 2 / Lemma 2). *)
  let build notify_every =
    let ctx = make_driver () in
    let counter = ref 0 in
    let maybe_notify () =
      incr counter;
      if !counter mod notify_every = 0 then Driver.notify ctx.driver
    in
    let r0 = ref [] and prev = ref [] in
    for round = 0 to 5 do
      let parents = if round = 0 then [] else !prev in
      let cns = List.map (fun a -> certify (make_node ~round ~author:a ~parents ())) [ 0; 1; 2; 3 ] in
      List.iter
        (fun cn ->
          ignore (Store.note_proposal ctx.store cn.Types.cn_node);
          ignore (Store.add_certified ctx.store cn);
          maybe_notify ())
        cns;
      prev := List.map (fun cn -> Types.ref_of_node cn.Types.cn_node) cns;
      if round = 0 then r0 := !prev
    done;
    Driver.notify ctx.driver;
    List.map
      (fun (s : Driver.segment) ->
        ( s.Driver.anchor.Types.ref_round,
          s.Driver.anchor.Types.ref_author,
          List.map
            (fun cn -> (cn.Types.cn_node.Types.round, cn.Types.cn_node.Types.author))
            s.Driver.nodes ))
      (List.rev ctx.segments)
  in
  let log1 = build 1 and log7 = build 7 in
  checkb "non-empty" true (log1 <> []);
  checkb "identical ordered logs" true (log1 = log7)

let test_driver_bullshark_mode () =
  let ctx = make_driver ~mode:Anchors.Every_other_round ~fast:false () in
  let prev = ref [] in
  for round = 0 to 5 do
    let parents = if round = 0 then [] else !prev in
    prev := add_round ctx ~round ~parents ()
  done;
  let anchors = segment_anchors ctx in
  (* Anchors only in odd rounds, one per round. *)
  List.iter (fun (r, _, _) -> checkb "odd round" true (r mod 2 = 1)) anchors;
  checkb "multiple waves" true (List.length anchors >= 2);
  (* Everything from covered rounds is ordered. *)
  let stats = Driver.stats ctx.driver in
  checkb "nodes ordered" true (stats.Driver.nodes_ordered >= 12)

let test_driver_gc_requested () =
  let gc_calls = ref [] in
  let store = Store.create ~n:4 ~genesis_digest:committee.Committee.genesis in
  let cfg = { (Driver.default_config ~committee) with Driver.gc_depth = 2 } in
  let driver =
    Driver.create cfg
      {
        Driver.now = (fun () -> 0.0);
        cert_ref =
          (fun ~round ~author ->
            Option.map (fun cn -> Types.ref_of_node cn.Types.cn_node) (Store.get store ~round ~author));
        request_fetch = (fun _ -> ());
        on_segment = (fun _ -> ());
        request_gc = (fun ~round -> gc_calls := round :: !gc_calls);
        direct_guard = None;
      }
      ~store
  in
  let prev = ref [] in
  for round = 0 to 6 do
    let parents = if round = 0 then [] else !prev in
    let cns = List.map (fun a -> certify (make_node ~round ~author:a ~parents ())) [ 0; 1; 2; 3 ] in
    List.iter
      (fun cn ->
        ignore (Store.note_proposal store cn.Types.cn_node);
        ignore (Store.add_certified store cn);
        Driver.notify driver)
      cns;
    prev := List.map (fun cn -> Types.ref_of_node cn.Types.cn_node) cns
  done;
  checkb "gc requested below horizon" true (List.exists (fun r -> r >= 1) !gc_calls)

let test_driver_stats_consistent () =
  let ctx = make_driver () in
  let prev = ref [] in
  for round = 0 to 4 do
    let parents = if round = 0 then [] else !prev in
    prev := add_round ctx ~round ~parents ()
  done;
  let stats = Driver.stats ctx.driver in
  checki "segments = commits"
    (stats.Driver.fast_commits + stats.Driver.direct_commits + stats.Driver.indirect_commits)
    stats.Driver.segments;
  checki "segments = emitted" (List.length ctx.segments) stats.Driver.segments

(* ------------------------------------------------------------------ *)
(* Checkpoint lifecycle: snapshots and prunes walk the ordered set's
   round bounds. Each driver below is checked against a reference model of
   its ordered set (every position it emitted, minus every pruned round),
   over a seeded DAG with dropouts, so skips and indirect commits shift
   the window. *)

let snapshot_window blob =
  (* The blob's leading fields, as [Driver.snapshot] writes them. *)
  let rd = Shoalpp_codec.Wire.Reader.of_string blob in
  let uint () = Shoalpp_codec.Wire.Reader.uint rd in
  ignore (uint ()) (* cur_round *);
  ignore (Shoalpp_codec.Wire.Reader.list rd Shoalpp_codec.Wire.Reader.uint) (* pending *);
  ignore (uint ()) (* segments *);
  ignore (uint ()) (* skipped_anchors *);
  let floor = uint () in
  (floor, Shoalpp_codec.Wire.Reader.list rd Shoalpp_codec.Wire.Reader.uint)

(* Reference encoder for [Driver.snapshot], built from the public state
   only: the header's scheduling fields (the pending vector is not public,
   so it is read back from [blob]), a membership walk over every round from
   the store floor up, and [Reputation.dump] written field by field. *)
let reference_snapshot store driver ~blob =
  let module W = Shoalpp_codec.Wire.Writer in
  let module R = Shoalpp_codec.Wire.Reader in
  let rd = R.of_string blob in
  ignore (R.uint rd);
  let pending = R.list rd R.uint in
  let w = W.create () in
  let uints l = W.list w (W.uint w) l in
  W.uint w (Driver.current_anchor_round driver);
  uints pending;
  let st = Driver.stats driver in
  W.uint w st.Driver.segments;
  W.uint w st.Driver.skipped_anchors;
  let floor = Store.lowest_retained store in
  W.uint w floor;
  let n = Store.n store in
  let keys = ref [] in
  (* Ordered nodes sit at or below the anchor round being resolved. *)
  let top = max (Store.highest_round store) (Driver.current_anchor_round driver) in
  for round = top downto floor do
    for author = n - 1 downto 0 do
      if Driver.is_ordered driver ~round ~author then keys := ((round * n) + author) :: !keys
    done
  done;
  uints !keys;
  let d = Reputation.dump (Driver.reputation driver) in
  let shifted l = W.list w (fun v -> W.uint w (v + 1)) l in
  shifted d.Reputation.d_scores;
  shifted d.Reputation.d_last_round;
  shifted d.Reputation.d_last_support;
  shifted d.Reputation.d_miss;
  W.list w uints d.Reputation.d_recent;
  W.uint w (d.Reputation.d_highest_anchor_round + 1);
  W.contents w

type lifecycle = {
  lstore : Store.t;
  ldriver : Driver.t;
  model : (int, unit) Hashtbl.t; (* reference ordered set: round * 4 + author *)
  mutable blobs : string list; (* newest first *)
  mutable log : (int * int * (int * int) list) list; (* newest first *)
}

let lifecycle_driver ?(window = 64) () =
  let store = Store.create ~n:4 ~genesis_digest:committee.Committee.genesis in
  let self = ref None in
  let get () = Option.get !self in
  let reference_keys l pred =
    List.sort Int.compare (Hashtbl.fold (fun k () acc -> if pred k then k :: acc else acc) l.model [])
  in
  let on_segment (seg : Driver.segment) =
    let l = get () in
    let nodes =
      List.map
        (fun cn -> (cn.Types.cn_node.Types.round, cn.Types.cn_node.Types.author))
        seg.Driver.nodes
    in
    List.iter (fun (r, a) -> Hashtbl.replace l.model ((r * 4) + a) ()) nodes;
    l.log <- (seg.Driver.anchor.Types.ref_round, seg.Driver.anchor.Types.ref_author, nodes) :: l.log;
    let blob = Option.get seg.Driver.resume in
    l.blobs <- blob :: l.blobs;
    Alcotest.(check string) "snapshot = reference encoder" (reference_snapshot l.lstore l.ldriver ~blob)
      blob;
    let floor, window = snapshot_window blob in
    checki "snapshot floor = store floor" (Store.lowest_retained l.lstore) floor;
    checkb "snapshot window = reference keys >= floor, ascending" true
      (window = reference_keys l (fun k -> k / 4 >= floor))
  in
  let request_gc ~round =
    let l = get () in
    ignore (Store.prune_below l.lstore ~round);
    let expected = reference_keys l (fun k -> k / 4 < round) in
    checki "prune_ordered count = keys below" (List.length expected)
      (Driver.prune_ordered l.ldriver ~below:round);
    List.iter (Hashtbl.remove l.model) expected
  in
  let cfg =
    {
      (Driver.default_config ~committee) with
      Driver.gc_depth = 3;
      snapshot_every = 1;
      reputation_window = window;
    }
  in
  let driver =
    Driver.create cfg
      {
        Driver.now = (fun () -> 0.0);
        cert_ref =
          (fun ~round ~author ->
            Option.map (fun cn -> Types.ref_of_node cn.Types.cn_node) (Store.get store ~round ~author));
        request_fetch = (fun _ -> ());
        on_segment;
        request_gc;
        direct_guard = None;
      }
      ~store
  in
  let l = { lstore = store; ldriver = driver; model = Hashtbl.create 64; blobs = []; log = [] } in
  self := Some l;
  l

(* Rounds [0, rounds) of a seeded DAG: each round drops one author, and
   each node drops one parent, with probability 1/3 (quorums always hold). *)
let seeded_rounds ~seed ~rounds =
  let rng = Random.State.make [| seed |] in
  let drop_one l =
    if Random.State.int rng 3 = 0 then
      let victim = List.nth l (Random.State.int rng (List.length l)) in
      List.filter (fun x -> x != victim) l
    else l
  in
  let prev = ref [] in
  List.init rounds (fun round ->
      let cns =
        List.map
          (fun author ->
            let parents = if round = 0 then [] else drop_one !prev in
            certify (make_node ~round ~author ~parents ()))
          (drop_one [ 0; 1; 2; 3 ])
      in
      prev := List.map (fun cn -> Types.ref_of_node cn.Types.cn_node) cns;
      cns)

let feed l cns =
  List.iter
    (fun cn ->
      ignore (Store.note_proposal l.lstore cn.Types.cn_node);
      ignore (Store.add_certified l.lstore cn);
      Driver.notify l.ldriver)
    cns

let test_driver_snapshot_and_prune_bounds () =
  let dag = Array.of_list (seeded_rounds ~seed:11 ~rounds:60) in
  let a = lifecycle_driver () in
  Array.iteri (fun r cns -> if r < 40 then feed a cns) dag;
  checkb "segments emitted" true (List.length a.log > 10);
  let st = Driver.stats a.ldriver in
  checkb "skips and indirect commits exercised" true
    (st.Driver.skipped_anchors > 0 && st.Driver.indirect_commits > 0);
  checkb "history pruned" true (Store.lowest_retained a.lstore > 20);
  (* Restore the latest blob into a fresh driver over a store holding only
     the rounds at or above the blob's floor: the restored bounds start
     high, not at round 0. *)
  let blob = List.hd a.blobs in
  let b = lifecycle_driver () in
  let floor = Driver.restore b.ldriver blob in
  checki "restore returns the blob floor" (fst (snapshot_window blob)) floor;
  ignore (Store.prune_below b.lstore ~round:floor);
  Alcotest.(check string) "encode -> restore -> encode" blob (Driver.snapshot b.ldriver);
  List.iter (fun k -> Hashtbl.replace b.model k ()) (snd (snapshot_window blob));
  Array.iteri (fun r cns -> if r >= floor && r < 40 then feed b cns) dag;
  (* The GC [a] ran after its last snapshot, replayed on [b]. *)
  let below = Store.lowest_retained a.lstore in
  ignore (Store.prune_below b.lstore ~round:below);
  let expected = Hashtbl.fold (fun k () n -> if k / 4 < below then n + 1 else n) b.model 0 in
  checki "restored prune count" expected (Driver.prune_ordered b.ldriver ~below);
  Hashtbl.filter_map_inplace (fun k () -> if k / 4 < below then None else Some ()) b.model;
  (* From here both drivers see the same rounds: the restored one must
     emit the same segments and byte-identical snapshots. *)
  let mark_a = List.length a.log and mark_b = List.length b.log in
  Array.iteri (fun r cns -> if r >= 40 then (feed a cns; feed b cns)) dag;
  let since mark l = List.filteri (fun i _ -> i < List.length l - mark) l in
  checkb "restored driver emits" true (List.length b.log > mark_b);
  checkb "same segments after restore" true (since mark_a a.log = since mark_b b.log);
  checkb "same snapshots after restore" true
    (since mark_a a.blobs = since mark_b b.blobs)

(* Three lanes over independently seeded DAGs, fed round-robin, with a
   reputation window short enough to evict: every emitted snapshot (checked
   inside [lifecycle_driver]) must equal the reference encoder, across
   prunes, and again after each lane is restored from its latest blob and
   driven on by the same rounds as the original. *)
let test_driver_snapshot_matches_reference_multi_lane () =
  let lanes = [| 21; 22; 23 |] in
  let dags = Array.map (fun seed -> Array.of_list (seeded_rounds ~seed ~rounds:70)) lanes in
  let drivers = Array.map (fun _ -> lifecycle_driver ~window:6 ()) lanes in
  for r = 0 to 44 do
    Array.iteri (fun i l -> feed l dags.(i).(r)) drivers
  done;
  Array.iter
    (fun l ->
      checkb "many snapshots" true (List.length l.blobs > 15);
      checkb "window evicted" true (List.length l.blobs > 6);
      checkb "pruned" true (Store.lowest_retained l.lstore > 20))
    drivers;
  let restored =
    Array.mapi
      (fun i a ->
        let b = lifecycle_driver ~window:6 () in
        let blob = List.hd a.blobs in
        let floor = Driver.restore b.ldriver blob in
        ignore (Store.prune_below b.lstore ~round:floor);
        Alcotest.(check string) "restored snapshot" blob (Driver.snapshot b.ldriver);
        Alcotest.(check string) "restored = reference" blob
          (reference_snapshot b.lstore b.ldriver ~blob);
        (* Catch the restored lane's store up to the original's rounds and
           floor; from then on both see the same rounds. *)
        List.iter (fun k -> Hashtbl.replace b.model k ()) (snd (snapshot_window blob));
        Array.iteri (fun r cns -> if r >= floor && r < 45 then feed b cns) dags.(i);
        let below = Store.lowest_retained a.lstore in
        ignore (Store.prune_below b.lstore ~round:below);
        let expected = Hashtbl.fold (fun k () n -> if k / 4 < below then n + 1 else n) b.model 0 in
        checki "restored prune count" expected (Driver.prune_ordered b.ldriver ~below);
        Hashtbl.filter_map_inplace (fun k () -> if k / 4 < below then None else Some ()) b.model;
        b)
      drivers
  in
  let count l = List.length l.blobs in
  let marks = Array.map (fun i -> (count drivers.(i), count restored.(i))) [| 0; 1; 2 |] in
  for r = 45 to 69 do
    Array.iteri
      (fun i l ->
        feed l dags.(i).(r);
        feed restored.(i) dags.(i).(r))
      drivers
  done;
  Array.iteri
    (fun i (mark_a, mark_b) ->
      let newest l mark = List.filteri (fun j _ -> j < count l - mark) l.blobs in
      checkb "restored lane emits" true (count restored.(i) > mark_b);
      checkb "same snapshots as the original lane" true
        (newest drivers.(i) mark_a = newest restored.(i) mark_b))
    marks

let suite =
  [
    ( "consensus.reputation",
      [
        Alcotest.test_case "cold start all eligible" `Quick test_reputation_cold_start_all;
        Alcotest.test_case "disabled round robin" `Quick test_reputation_disabled_round_robin;
        Alcotest.test_case "supporters vs stragglers" `Quick test_reputation_supporters_vs_stragglers;
        Alcotest.test_case "duplicate supporters once" `Quick test_reputation_duplicate_supporters_once;
        Alcotest.test_case "recovers" `Quick test_reputation_recovers;
        Alcotest.test_case "scores order" `Quick test_reputation_scores_order;
        Alcotest.test_case "window eviction" `Quick test_reputation_window_eviction;
        Alcotest.test_case "determinism" `Quick test_reputation_determinism;
      ] );
    ( "consensus.anchors",
      [
        Alcotest.test_case "modes" `Quick test_anchor_modes;
        Alcotest.test_case "bullshark rotation" `Quick test_bullshark_anchor_rotation_covers_all;
        Alcotest.test_case "instance anchor" `Quick test_instance_anchor_is_head;
      ] );
    ( "consensus.driver",
      [
        Alcotest.test_case "fast commit" `Quick test_driver_fast_commit;
        Alcotest.test_case "fast needs 2f+1" `Quick test_driver_fast_needs_fast_quorum;
        Alcotest.test_case "direct commit" `Quick test_driver_direct_commit_without_fast;
        Alcotest.test_case "direct needs f+1" `Quick test_driver_direct_needs_weak_quorum;
        Alcotest.test_case "indirect skip" `Quick test_driver_indirect_skip;
        Alcotest.test_case "replicas agree" `Quick test_driver_two_replicas_agree;
        Alcotest.test_case "bullshark mode" `Quick test_driver_bullshark_mode;
        Alcotest.test_case "snapshot and prune walk round bounds" `Quick
          test_driver_snapshot_and_prune_bounds;
        Alcotest.test_case "snapshot = reference encoder, three lanes" `Quick
          test_driver_snapshot_matches_reference_multi_lane;
        Alcotest.test_case "gc requested" `Quick test_driver_gc_requested;
        Alcotest.test_case "stats consistent" `Quick test_driver_stats_consistent;
      ] );
  ]
