(* The checkpoint lifecycle, two ways:

   - [Ck_manager] alone, with fake effects and no cluster: a quorum
     certifies exactly once; forged, duplicated, stale and beyond-horizon
     votes are refused; install raises the gates to the floors of the
     checkpoint it replaces; each lane's WAL is truncated below its seam
     round, only once the checkpoint's blob is durable; the checkpoint
     device keeps only the newest durable blob; an unverifiable peer blob
     is never adopted through the restart's catch-up loop, and a retry
     armed before a restart never moves the next one; the served blob is
     the encoding of the latest checkpoint after install, restore and
     wipe;
   - the vote rule: the end of every R-th merged round is a seam, voted
     only if every lane closed that round explicitly, and a replica
     restarted from a certified checkpoint votes the same seams as its
     peers;
   - pinned end to end: a fixed-seed n=4, interval-12 simulated run with
     one crash and restart must certify the same checkpoints, in the same
     order, with the same digests, and truncate the same number of WAL
     entries, whatever module runs the lifecycle. *)

module Types = Shoalpp_dag.Types
module Committee = Shoalpp_dag.Committee
module Driver = Shoalpp_consensus.Driver
module Store = Shoalpp_dag.Store
module Wal = Shoalpp_storage.Wal
module Wire = Shoalpp_codec.Wire
module Engine = Shoalpp_sim.Engine
module Obs = Shoalpp_sim.Obs
module Ck_manager = Shoalpp_core.Ck_manager
module Digest32 = Shoalpp_crypto.Digest32
module Checkpoint = Shoalpp_storage.Checkpoint
module Faults = Shoalpp_sim.Faults
module Topology = Shoalpp_sim.Topology
module Cluster = Shoalpp_runtime.Cluster
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Telemetry = Shoalpp_support.Telemetry
module Sync = Shoalpp_sync.Sync

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* The manager with fake effects.                                      *)

let committee = Committee.make ~n:4 ~cluster_seed:9 ()

(* Interval 3 with 3 lanes: R = 3 / 3 = 1, so the end of every merged
   round is a seam. *)
let config = Config.with_checkpoint_interval (Config.shoalpp ~committee) 3

(* The prefix of a driver snapshot that [Driver.snapshot_floor] reads. *)
let resume ~floor =
  let w = Wire.Writer.create () in
  Wire.Writer.uint w 0;
  Wire.Writer.list w (Wire.Writer.uint w) [];
  Wire.Writer.uint w 0;
  Wire.Writer.uint w 0;
  Wire.Writer.uint w floor;
  Wire.Writer.contents w

type fake = {
  id : int;
  m : Ck_manager.t;
  tel : Telemetry.t;
  votes : Types.message list ref; (* broadcast, newest first *)
  gates : (int * int) list ref; (* (lane, round), newest first *)
  owners : int list ref; (* devices and lanes run "on their owner", newest first *)
  rewinds : int list ref; (* rewind seqs, newest first *)
  wals : Wal.t array; (* one retaining protocol WAL per lane *)
  device : Wal.t; (* the checkpoint device *)
  engine : Engine.t; (* drives the WAL devices' syncs *)
}

let fake ?(config = config) id =
  let engine = Engine.create () in
  let timers = Shoalpp_backend.Backend_sim.timers engine in
  let tel = Telemetry.create () in
  let obs = Obs.make ~telemetry:tel ~replica:id ~instance:0 () in
  let votes = ref [] and gates = ref [] and owners = ref [] and rewinds = ref [] in
  let retaining () = Wal.create ~timers ~sync_latency_ms:0.0 ~retain:true () in
  let wals = Array.init config.Config.num_dags (fun _ -> retaining ()) in
  let device = retaining () in
  let fx =
    {
      Ck_manager.now = (fun () -> 0.0);
      broadcast_vote = (fun v -> votes := v :: !votes);
      on_lane =
        (fun i f ->
          owners := i :: !owners;
          f obs);
      set_gate = (fun i ~round -> gates := (i, round) :: !gates);
      wal = (fun i -> wals.(i));
      rewind = (fun ~seq _ -> rewinds := seq :: !rewinds);
    }
  in
  let m = Option.get (Ck_manager.create ~config ~replica_id:id ~obs ~device fx) in
  { id; m; tel; votes; gates; owners; rewinds; wals; device; engine }

(* Merge anchor round [round] on every given manager from global seq
   [seq]: [segs] lists each merged segment's lane and whether it closes
   the round, in merge order. As the drivers do every R-th round, a
   closing segment carries a snapshot with floor [floor + lane] where
   (round + 1) mod [r] = 0. Returns the next seq. *)
let merge_round ?(r = 1) fs ~seq ~round ~floor segs =
  let seam = (round + 1) mod r = 0 in
  List.iteri
    (fun i (dag_id, closes) ->
      let segment =
        {
          Driver.dag_id;
          anchor = { Types.ref_round = round; ref_author = (seq + i) mod 4; ref_digest = Digest32.zero };
          kind = Driver.Fast;
          nodes = [];
          committed_at = 0.0;
          closes;
          resume =
            (if closes && seam then Some (Lazy.from_val (resume ~floor:(floor + dag_id)))
             else None);
        }
      in
      List.iter (fun f -> Ck_manager.observe f.m segment) fs)
    segs;
  let last = seq + List.length segs - 1 in
  List.iter (fun f -> Ck_manager.round_merged f.m ~replaying:false ~seq:last ~round) fs;
  last + 1

(* Two anchors per lane, each lane closing the round, as multi-anchor
   rounds commit. *)
let burst = [ (0, false); (0, true); (1, false); (1, true); (2, false); (2, true) ]

(* Merge rounds [from, upto] as bursts: round r is seqs 6r .. 6r + 5, so
   with R = 1 its seam is seq 6r + 5. *)
let feed fs ~from ~upto ~floor =
  for round = from to upto do
    ignore (merge_round fs ~seq:(6 * round) ~round ~floor burst)
  done

let vote_of f ~seq =
  List.find
    (function Types.Checkpoint_vote { ck_seq; _ } -> ck_seq = seq | _ -> false)
    !(f.votes)

let counter f name = Telemetry.get_counter f.tel name

(* The seqs a replica voted on, oldest first. *)
let vote_seqs f =
  List.rev_map (function Types.Checkpoint_vote { ck_seq; _ } -> ck_seq | _ -> -1) !(f.votes)
let latest_seq f = Option.map Checkpoint.seq (Ck_manager.latest f.m)

let cluster () = List.init 4 (fun id -> fake id)

let test_quorum_certifies_once () =
  let fs = cluster () in
  let m0 = List.hd fs in
  feed fs ~from:0 ~upto:0 ~floor:10;
  checki "every replica voted once" 4 (List.length (List.concat_map (fun f -> !(f.votes)) fs));
  let deliver voter = Ck_manager.on_vote m0.m ~global_seq:6 (vote_of (List.nth fs voter) ~seq:5) in
  deliver 0;
  deliver 1;
  checkb "two votes do not certify" true (latest_seq m0 = None);
  deliver 2;
  checkb "a quorum certifies" true (latest_seq m0 = Some 5);
  deliver 3;
  checki "certified exactly once" 1 (counter m0 "ck.certified");
  checkb "the certificate verifies" true
    (Checkpoint.verify ~keys:committee.Committee.keys ~quorum:(Committee.quorum committee)
       (Option.get (Ck_manager.latest m0.m)))

let test_bad_votes_refused () =
  let fs = cluster () in
  let m0 = List.hd fs in
  feed fs ~from:0 ~upto:0 ~floor:10;
  let vote voter = vote_of (List.nth fs voter) ~seq:5 in
  let forge = function
    | Types.Checkpoint_vote v -> Types.Checkpoint_vote { v with ck_voter = (v.ck_voter + 1) mod 4 }
    | m -> m
  in
  (* Replica 1's signature claimed for replica 2. *)
  Ck_manager.on_vote m0.m ~global_seq:6 (forge (vote 1));
  checki "forged vote rejected" 1 (counter m0 "ck.votes_rejected");
  Ck_manager.on_vote m0.m ~global_seq:6 (vote 0);
  Ck_manager.on_vote m0.m ~global_seq:6 (vote 0);
  Ck_manager.on_vote m0.m ~global_seq:6 (vote 1);
  checkb "a duplicate does not make a quorum" true (latest_seq m0 = None);
  (* Beyond the horizon (4096 + 4 intervals past the merge position) a
     vote is dropped unchecked: a forgery there is not even counted, and
     an honest one is not buffered for the boundary. *)
  let far = -4096 - 12 + 5 in
  Ck_manager.on_vote m0.m ~global_seq:far (forge (vote 3));
  checki "beyond the horizon: refused before the signature check" 1
    (counter m0 "ck.votes_rejected");
  Ck_manager.on_vote m0.m ~global_seq:far (vote 2);
  checkb "beyond the horizon: not counted" true (latest_seq m0 = None);
  Ck_manager.on_vote m0.m ~global_seq:6 (vote 2);
  checkb "within the horizon: certifies" true (latest_seq m0 = Some 5);
  (* At or below the certified seq a vote is stale: refused unchecked. *)
  Ck_manager.on_vote m0.m ~global_seq:6 (forge (vote 3));
  checki "stale: refused before the signature check" 1 (counter m0 "ck.votes_rejected");
  checki "certified once" 1 (counter m0 "ck.certified")

(* Votes of every replica for boundary [seq], delivered to every replica. *)
let certify_all fs ~seq =
  List.iter
    (fun voter ->
      List.iter (fun f -> Ck_manager.on_vote f.m ~global_seq:(seq + 1) (vote_of voter ~seq)) fs)
    fs

let test_install_gates_previous_floors () =
  let fs = cluster () in
  let m0 = List.hd fs in
  feed fs ~from:0 ~upto:0 ~floor:10;
  certify_all fs ~seq:5;
  checkb "first install: no gate" true (!(m0.gates) = []);
  feed fs ~from:1 ~upto:1 ~floor:20;
  certify_all fs ~seq:11;
  checkb "second install certified" true (latest_seq m0 = Some 11);
  Alcotest.(check (list (pair int int)))
    "gates at the replaced checkpoint's floors" [ (0, 10); (1, 11); (2, 12) ]
    (List.rev !(m0.gates))

(* The lanes run out of phase: lane 1's WAL holds rounds up to 40 past the
   seam. Each lane is truncated below its own seam round in the certified
   checkpoint (round 10 in every lane here), on its owner, and only once
   the checkpoint's blob is durable on the checkpoint device. *)
let test_truncation_at_seam_rounds () =
  let fs = cluster () in
  let m0 = List.hd fs in
  let top = [| 12; 50; 12 |] in
  Array.iteri
    (fun d w ->
      for round = 0 to top.(d) do
        Wal.append w ~entry:{ Wal.lane = d; round; payload = (fun () -> string_of_int round) } ignore
      done)
    m0.wals;
  Engine.run ~until:1.0 m0.engine;
  feed fs ~from:0 ~upto:10 ~floor:10;
  certify_all fs ~seq:65;
  checkb "certified at the round-10 seam" true (latest_seq m0 = Some 65);
  let rounds d = List.map (fun (_, s) -> int_of_string s) (Wal.entries m0.wals.(d)) in
  checki "nothing truncated before the blob's sync" 13 (List.length (rounds 0));
  checki "no truncation counted yet" 0 (counter m0 "ck.wal_truncated_entries");
  Engine.run ~until:(Engine.now m0.engine +. 50.0) m0.engine;
  Alcotest.(check (list int))
    "the leading lane keeps every round from its seam" (List.init 41 (fun i -> 10 + i)) (rounds 1);
  Alcotest.(check (list int)) "lane 0 keeps rounds 10 to 12" [ 10; 11; 12 ] (rounds 0);
  checki "ck.wal_truncated_entries" 30 (counter m0 "ck.wal_truncated_entries");
  checkb "each lane truncated on its owner" true
    (List.for_all (fun d -> List.mem d !(m0.owners)) [ 0; 1; 2 ])

(* The restart's catch-up loop over a fake manager, as the replica wires
   it: [asked] logs each request's destination (newest first), [timers]
   queues the retry closures to be fired by hand, and [replayed] counts
   the ends of the adopt phase. *)
type catch_up = {
  client : Sync.Client.t;
  asked : (int * Types.sync_request) list ref;
  timers : (unit -> unit) Queue.t;
  replayed : int ref;
}

let catch_up f =
  let asked = ref [] and timers = Queue.create () and replayed = ref 0 in
  let client =
    Sync.Client.create ~n:4 ~self:f.id ~lanes:config.Config.num_dags
      {
        Sync.Client.send = (fun ~dst ~lane:_ req -> asked := (dst, req) :: !asked);
        schedule = (fun ~after:_ g -> Queue.push g timers);
        adopt = Ck_manager.adopt f.m ~global_seq:0;
        replay =
          (fun () ->
            incr replayed;
            Array.make config.Config.num_dags 0);
        ingest = (fun ~lane:_ _ -> ());
        on_caught_up = ignore;
      }
  in
  { client; asked; timers; replayed }

(* The peers asked for a checkpoint, newest first. *)
let ck_asks c =
  List.filter_map (function dst, Types.Get_checkpoint -> Some dst | _ -> None) !(c.asked)

let answer c blob = Sync.Client.handle_response c.client ~lane:0 (Types.Checkpoint_blob { cb_blob = blob })

let test_unverifiable_blob_never_adopted () =
  let fs = cluster () in
  feed fs ~from:0 ~upto:0 ~floor:10;
  certify_all fs ~seq:5;
  let good = Option.get (Ck_manager.served_blob (List.nth fs 1).m) in
  let fresh = fake 0 in
  Ck_manager.recover fresh.m ~wipe:true;
  let c = catch_up fresh in
  Sync.Client.start c.client;
  checkb "catching up" true (Sync.Client.active c.client);
  Alcotest.(check (list int)) "first peer asked" [ 1 ] (ck_asks c);
  answer c (Some "garbage");
  (* A real checkpoint with one byte of its aggregate flipped. *)
  let tampered =
    Bytes.to_string
      (Bytes.mapi
         (fun i c -> if i = String.length good - 1 then Char.chr (Char.code c lxor 1) else c)
         (Bytes.of_string good))
  in
  answer c (Some tampered);
  checki "both rejected" 2 (counter fresh "ck.adopt_rejected");
  checkb "nothing adopted" true (latest_seq fresh = None && !(fresh.rewinds) = []);
  Alcotest.(check (list int)) "rotated to the next peers" [ 3; 2; 1 ] (ck_asks c);
  (* Silence moves the loop on too; only the newest retry timer is live. *)
  let due = Queue.copy c.timers in
  Queue.clear c.timers;
  Queue.iter (fun g -> g ()) due;
  Alcotest.(check (list int)) "retried on the next peer" [ 1; 3; 2; 1 ] (ck_asks c);
  answer c (Some good);
  checkb "a verified blob is adopted" true (latest_seq fresh = Some 5);
  Alcotest.(check (list int)) "merge rewound to it" [ 5 ] !(fresh.rewinds);
  checki "resolved once" 1 !(c.replayed);
  answer c (Some good);
  checkb "adopt phase over: every lane pages from the answering peer" true
    (List.length (ck_asks c) = 4
    && List.for_all
         (function 1, Types.Get_certificates_in_range _ -> true | _ -> false)
         (List.filteri (fun i _ -> i < config.Config.num_dags) !(c.asked)))

(* The blob a lane domain serves is the encoding of [latest] after each
   of its writers: install, restore (from the local device) and a wiping
   recover. *)
let test_served_blob_tracks_latest () =
  let fs = cluster () in
  let f = List.hd fs in
  let served_ok what =
    checkb what true
      (Ck_manager.served_blob f.m = Option.map Checkpoint.encode (Ck_manager.latest f.m))
  in
  served_ok "nothing before a certificate";
  feed fs ~from:0 ~upto:0 ~floor:10;
  certify_all fs ~seq:5;
  feed fs ~from:1 ~upto:1 ~floor:20;
  certify_all fs ~seq:11;
  checkb "installed" true (latest_seq f = Some 11);
  served_ok "after install";
  Engine.run f.engine;
  Ck_manager.recover f.m ~wipe:false;
  checkb "restored from the device" true (latest_seq f = Some 11 && !(f.rewinds) = [ 11 ]);
  served_ok "after restore";
  Ck_manager.recover f.m ~wipe:true;
  checkb "wiped" true (Ck_manager.served_blob f.m = None);
  served_ok "after a wiping recover"

(* The vote rule at R = 6 / 3 = 2: the seams end rounds 1, 3, 5, ...; a
   seam is voted only if every lane closed its round explicitly, and a
   seam that is not voted neither votes nor replaces the pending
   candidate. *)
let test_votes_on_round_buckets () =
  let config = Config.with_checkpoint_interval (Config.shoalpp ~committee) 6 in
  let fs = List.init 4 (fun id -> fake ~config id) in
  let m0 = List.hd fs in
  let seq = ref 0 in
  let merge round segs = seq := merge_round ~r:2 fs ~seq:!seq ~round ~floor:(10 * round) segs in
  merge 0 burst;
  Alcotest.(check (list int)) "round 0 is no seam" [] (vote_seqs m0);
  merge 1 burst;
  Alcotest.(check (list int)) "round 1's seam is voted" [ 11 ] (vote_seqs m0);
  merge 2 burst;
  (* Lane 1 leaves round 3 open (a [Skip_to] above it), lane 2 commits
     nothing there: both close it only by committing a higher round. *)
  merge 3 [ (0, false); (0, true); (1, false) ];
  Alcotest.(check (list int)) "a seam with an implicit close is not voted" [ 11 ]
    (vote_seqs m0);
  certify_all fs ~seq:11;
  checkb "the candidate of round 1 outlived round 3's seam" true (latest_seq m0 = Some 11);
  merge 4 burst;
  merge 5 burst;
  merge 6 burst;
  merge 7 burst;
  Alcotest.(check (list int)) "rounds 5 and 7 vote their seams" [ 11; 32; 44 ] (vote_seqs m0);
  checki "three boundaries" 3 (counter m0 "ck.boundaries");
  checki "seam 44 superseded the uncertified seam 32" 1 (counter m0 "ck.superseded");
  certify_all fs ~seq:44;
  checkb "the newest candidate certifies" true (latest_seq m0 = Some 44);
  checki "one superseded in all" 1 (counter m0 "ck.superseded");
  Alcotest.(check (list int)) "every lane's snapshot is from the seam round" [ 7; 7; 7 ]
    (List.map
       (fun (l : Checkpoint.lane) -> l.Checkpoint.round)
       (Checkpoint.lanes (Option.get (Ck_manager.latest m0.m))))

(* A replica that restarts from a certified checkpoint — read back from
   its own device, or adopted from a peer — forgets the lanes' snapshots
   and the running digest of the log before it, and then votes exactly
   the seams its peers vote, with the same digests. *)
let test_restarted_votes_peer_seams () =
  let fs = cluster () in
  feed fs ~from:0 ~upto:0 ~floor:10;
  certify_all fs ~seq:5;
  let good = Option.get (Ck_manager.served_blob (List.nth fs 1).m) in
  let restarted = List.nth fs 3 in
  Engine.run restarted.engine;
  Ck_manager.recover restarted.m ~wipe:false;
  checkb "restored from the device" true (latest_seq restarted = Some 5);
  let adopted = fake 3 in
  Ck_manager.recover adopted.m ~wipe:true;
  checkb "a verified blob ends the adopt phase" true
    (Ck_manager.adopt adopted.m ~global_seq:0 (Some good));
  checkb "adopted from a peer" true (latest_seq adopted = Some 5);
  List.iter (fun f -> f.votes := []) fs;
  feed (adopted :: fs) ~from:1 ~upto:3 ~floor:20;
  let peer = vote_seqs (List.hd fs) in
  Alcotest.(check (list int)) "peers vote the next rounds' seams" [ 11; 17; 23 ] peer;
  Alcotest.(check (list int)) "restored from the device: same seams" peer (vote_seqs restarted);
  Alcotest.(check (list int)) "adopted from a peer: same seams" peer (vote_seqs adopted);
  let digests f =
    List.map (function Types.Checkpoint_vote { ck_digest; _ } -> ck_digest | _ -> Digest32.zero) !(f.votes)
  in
  checkb "restored: same digests" true (digests restarted = digests (List.hd fs));
  checkb "adopted: same digests" true (digests adopted = digests (List.hd fs))

(* A retry armed before a restart must not move the next restart's
   request at the same attempt (a crash and a quick re-recover inside the
   retry window). *)
let test_stale_retry_ignored () =
  let f = fake 0 in
  let c = catch_up f in
  Ck_manager.recover f.m ~wipe:true;
  Sync.Client.start c.client;
  let stale = Queue.pop c.timers in
  Ck_manager.recover f.m ~wipe:true;
  Sync.Client.start c.client;
  Alcotest.(check (list int)) "both restarts asked peer 1" [ 1; 1 ] (ck_asks c);
  stale ();
  Alcotest.(check (list int)) "the stale retry sends nothing" [ 1; 1 ] (ck_asks c);
  (Queue.pop c.timers) ();
  Alcotest.(check (list int)) "the live retry moves on one peer" [ 2; 1; 1 ] (ck_asks c)

(* The checkpoint device keeps only the newest durable blob: each blob's
   sync drops the older ones, and a restart restores the newest. *)
let test_device_keeps_newest_blob () =
  let fs = cluster () in
  let f = List.hd fs in
  List.iteri
    (fun i seq ->
      feed fs ~from:i ~upto:i ~floor:(10 * (i + 1));
      certify_all fs ~seq;
      Engine.run f.engine)
    [ 5; 11; 17 ];
  checkb "three installs" true (latest_seq f = Some 17);
  checki "the device holds one blob" 1 (List.length (Wal.entries f.device));
  Ck_manager.recover f.m ~wipe:false;
  checkb "restart restores the newest" true (latest_seq f = Some 17 && !(f.rewinds) = [ 17 ])

(* ------------------------------------------------------------------ *)
(* The lifecycle pinned end to end.                                    *)

(* Every replica's newest certified checkpoint, sampled each simulated
   millisecond; a change is one certification (or one restore). *)
let test_lifecycle_pin () =
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
      scenario = Faults.crash_recover ~count:1 ~at:2_000.0 ~recover_at:4_000.0 ();
      load_tps = 300.0;
      seed = 3;
    }
  in
  let cluster = Cluster.create setup in
  let replicas = Cluster.replicas cluster in
  let last = Array.make (Array.length replicas) (-1) in
  let seen = ref [] in
  for ms = 1 to 7_000 do
    Cluster.run cluster ~duration_ms:(float_of_int ms);
    Array.iteri
      (fun i r ->
        match Replica.latest_checkpoint r with
        | Some ck when Checkpoint.seq ck <> last.(i) ->
          last.(i) <- Checkpoint.seq ck;
          let d = Checkpoint.digest (Checkpoint.candidate_of ck) in
          seen := Printf.sprintf "%d/%d/%s" i (Checkpoint.seq ck) (Digest32.hex d) :: !seen
        | _ -> ())
      replicas
  done;
  let seen = List.rev !seen in
  let tel = Telemetry.snapshot (Cluster.telemetry cluster) in
  (* 35 certifications plus the restarted replica's one restore. A seam
     ends every R = 12 / 3 = 4 merged rounds, and no candidate is
     superseded, even across the crash: every voted seam certifies but the
     newest, whose votes are still in flight when the run stops. *)
  checki "checkpoints observed" 36 (List.length seen);
  checks "digest of the certified sequence"
    "f9abd54df0866f442cbf4241150b93349743cdfc3a6406724a57844b122d1bb6"
    (Digest32.hex (Digest32.of_string (String.concat ";" seen)));
  checki "ck.certified" 35 (Telemetry.snap_counter tel "ck.certified");
  checki "ck.boundaries" 36 (Telemetry.snap_counter tel "ck.boundaries");
  checki "ck.superseded" 0 (Telemetry.snap_counter tel "ck.superseded");
  checki "ck.wal_truncated_entries" 3634 (Telemetry.snap_counter tel "ck.wal_truncated_entries")

(* ------------------------------------------------------------------ *)
(* Liveness of the lifecycle at any segment rate.                      *)

(* Rounds a certificate may trail the merge by, beyond the R rounds
   between two seams: one vote round trip and the commit pipeline between
   a lane's driver and the merge, with a round to spare. *)
let lag_slack = 4

(* A fault-free checkpointed run at a generated n, load, interval, link
   delay and seed, sampled every 10 simulated ms on every replica:
   - certification keeps advancing: the merge's round never runs more
     than one checkpoint window, W = R + [lag_slack] rounds, past the
     newest certified checkpoint's seam round (round 0 before the first
     certificate);
   - the physical floor ([Store.lowest_stored]) trails the logical floor
     ([Store.lowest_retained]) by at most two windows on every lane: the
     retain gate sits at the floors of the checkpoint before the newest,
     and a lane's logical floor follows its own driver, ahead of the
     merge;
   - no candidate is superseded, and at most one per replica is still
     pending when the run ends. *)
let prop_certification_advances =
  QCheck.Test.make ~name:"certification advances, physical floor follows" ~count:10
    QCheck.(
      quad (oneofl [ 4; 10 ]) (int_range 100 4_000) (oneofl [ 3; 6; 12; 24; 48 ])
        (pair (oneofl [ 2.0; 20.0; 50.0 ]) (int_bound 1_000)))
    (fun (n, load, interval, (one_way_ms, seed)) ->
      let committee = Committee.make ~n ~cluster_seed:9 () in
      let protocol =
        Config.with_checkpoint_interval
          (Config.without_signature_checks (Config.shoalpp ~committee))
          interval
      in
      let rounds = Config.effective_checkpoint_interval protocol / protocol.Config.num_dags in
      let window = rounds + lag_slack in
      let setup =
        {
          (Cluster.default_setup ~protocol) with
          Cluster.topology = Topology.clique ~regions:2 ~one_way_ms;
          load_tps = float_of_int load;
          seed;
          track_logs = false;
        }
      in
      let cluster = Cluster.create setup in
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            QCheck.Test.fail_reportf "n=%d load=%d C=%d delay=%.0f seed=%d: %s" n load interval
              one_way_ms seed msg)
          fmt
      in
      for tick = 1 to 600 do
        Cluster.run cluster ~duration_ms:(10.0 *. float_of_int tick);
        Array.iteri
          (fun i r ->
            let certified0 =
              match Replica.latest_checkpoint r with
              | Some ck -> (List.hd (Checkpoint.lanes ck)).Checkpoint.round
              | None -> 0
            in
            (* The merge finishes round r only once every lane has
               closed it, so the slowest lane's driver round stands for
               the merge's position. *)
            let merged0 =
              List.fold_left min max_int
                (List.init protocol.Config.num_dags (fun dag_id ->
                     Driver.current_anchor_round (Replica.driver r ~dag_id)))
            in
            let lag = merged0 - certified0 in
            if lag > window then fail "replica %d: certificate %d rounds behind" i lag;
            for dag_id = 0 to protocol.Config.num_dags - 1 do
              let store = Replica.store r ~dag_id in
              let gap = Store.lowest_retained store - Store.lowest_stored store in
              if gap > 2 * window then
                fail "replica %d lane %d: physical floor %d rounds below logical" i dag_id gap
            done)
          (Cluster.replicas cluster)
      done;
      let tel = Telemetry.snapshot (Cluster.telemetry cluster) in
      let counter = Telemetry.snap_counter tel in
      if counter "ck.superseded" > 0 then fail "%d candidates superseded" (counter "ck.superseded");
      if counter "ck.boundaries" - counter "ck.certified" > n then
        fail "%d boundaries, %d certified" (counter "ck.boundaries") (counter "ck.certified");
      if counter "ck.certified" = 0 then fail "nothing certified";
      true)

let suite =
  [
    ( "core.ck_manager",
      [
        Alcotest.test_case "quorum certifies once" `Quick test_quorum_certifies_once;
        Alcotest.test_case "bad votes refused" `Quick test_bad_votes_refused;
        Alcotest.test_case "install gates the replaced floors" `Quick
          test_install_gates_previous_floors;
        Alcotest.test_case "truncation at the seam rounds" `Quick test_truncation_at_seam_rounds;
        Alcotest.test_case "unverifiable blob never adopted" `Quick
          test_unverifiable_blob_never_adopted;
        Alcotest.test_case "stale probe retry ignored" `Quick test_stale_retry_ignored;
        Alcotest.test_case "served blob tracks latest" `Quick test_served_blob_tracks_latest;
        Alcotest.test_case "device keeps the newest blob" `Quick test_device_keeps_newest_blob;
        Alcotest.test_case "votes on round buckets" `Quick test_votes_on_round_buckets;
        Alcotest.test_case "restarted replica votes its peers' seams" `Quick
          test_restarted_votes_peer_seams;
        Alcotest.test_case "lifecycle pin" `Quick test_lifecycle_pin;
        QCheck_alcotest.to_alcotest prop_certification_advances;
      ] );
  ]
