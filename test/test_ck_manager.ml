(* The checkpoint lifecycle, two ways:

   - [Ck_manager] alone, with fake effects and no cluster: a quorum
     certifies exactly once; forged, duplicated, stale and beyond-horizon
     votes are refused; install raises the gates to the floors of the
     checkpoint it replaces; truncation keeps two marks per WAL device;
     an unverifiable peer blob is never adopted; a retry armed by an
     earlier probe never moves a later one;
   - pinned end to end: a fixed-seed n=4, interval-12 simulated run with
     one crash and restart must certify the same checkpoints, in the same
     order, with the same digests, and truncate the same number of WAL
     entries, whatever module runs the lifecycle. *)

module Types = Shoalpp_dag.Types
module Committee = Shoalpp_dag.Committee
module Driver = Shoalpp_consensus.Driver
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

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* The manager with fake effects.                                      *)

let committee = Committee.make ~n:4 ~cluster_seed:9 ()

(* Interval 3 with 3 lanes: a boundary every 3 merged segments, one per
   lane, each carrying a driver snapshot. *)
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
  m : Ck_manager.t;
  tel : Telemetry.t;
  votes : Types.message list ref; (* broadcast, newest first *)
  probes : int list ref; (* probe destinations, newest first *)
  gates : (int * int) list ref; (* (lane, round), newest first *)
  owners : int list ref; (* devices and lanes run "on their owner", newest first *)
  rewinds : int list ref; (* rewind seqs, newest first *)
  timers : (unit -> unit) Queue.t; (* scheduled closures, fired by hand *)
  wals : Wal.t array;
}

let fake ?(wal_devices = 1) id =
  let engine = Engine.create () in
  let timers = Shoalpp_backend.Backend_sim.timers engine in
  let tel = Telemetry.create () in
  let obs = Obs.make ~telemetry:tel ~replica:id ~instance:0 () in
  let votes = ref [] and probes = ref [] and gates = ref [] and owners = ref [] in
  let rewinds = ref [] and pending = Queue.create () in
  let wals = Array.init wal_devices (fun _ -> Wal.create ~timers ~sync_latency_ms:0.0 ()) in
  let fx =
    {
      Ck_manager.now = (fun () -> 0.0);
      broadcast_vote = (fun v -> votes := v :: !votes);
      send_probe = (fun ~dst -> probes := dst :: !probes);
      schedule = (fun ~after:_ f -> Queue.push f pending);
      on_lane =
        (fun i f ->
          owners := i :: !owners;
          f obs);
      set_gate = (fun i ~round -> gates := (i, round) :: !gates);
      wal = (fun i -> wals.(i));
      rewind = (fun ~seq _ -> rewinds := seq :: !rewinds);
    }
  in
  let m =
    Option.get
      (Ck_manager.create ~config ~replica_id:id ~obs ~timers ~wal_devices fx)
  in
  { m; tel; votes; probes; gates; owners; rewinds; timers = pending; wals }

(* Merge segments [from, upto] on every given manager: lane = seq mod 3,
   anchor round = seq, snapshot floor = [floor + lane]. *)
let feed fs ~from ~upto ~floor =
  for seq = from to upto do
    let dag_id = seq mod 3 in
    let segment =
      {
        Driver.dag_id;
        anchor = { Types.ref_round = seq; ref_author = seq mod 4; ref_digest = Digest32.zero };
        kind = Driver.Fast;
        nodes = [];
        committed_at = 0.0;
        resume = Some (resume ~floor:(floor + dag_id));
      }
    in
    List.iter (fun f -> Ck_manager.observe f.m ~replaying:false ~seq segment) fs
  done

let vote_of f ~seq =
  List.find
    (function Types.Checkpoint_vote { ck_seq; _ } -> ck_seq = seq | _ -> false)
    !(f.votes)

let counter f name = Telemetry.get_counter f.tel name
let latest_seq f = Option.map Checkpoint.seq (Ck_manager.latest f.m)

let cluster () = List.init 4 (fun id -> fake id)

let test_quorum_certifies_once () =
  let fs = cluster () in
  let m0 = List.hd fs in
  feed fs ~from:0 ~upto:2 ~floor:10;
  checki "every replica voted once" 4 (List.length (List.concat_map (fun f -> !(f.votes)) fs));
  let deliver voter = Ck_manager.on_vote m0.m ~global_seq:3 (vote_of (List.nth fs voter) ~seq:2) in
  deliver 0;
  deliver 1;
  checkb "two votes do not certify" true (latest_seq m0 = None);
  deliver 2;
  checkb "a quorum certifies" true (latest_seq m0 = Some 2);
  deliver 3;
  checki "certified exactly once" 1 (counter m0 "ck.certified");
  checkb "the certificate verifies" true
    (Checkpoint.verify ~keys:committee.Committee.keys ~quorum:(Committee.quorum committee)
       (Option.get (Ck_manager.latest m0.m)))

let test_bad_votes_refused () =
  let fs = cluster () in
  let m0 = List.hd fs in
  feed fs ~from:0 ~upto:2 ~floor:10;
  let vote voter = vote_of (List.nth fs voter) ~seq:2 in
  let forge = function
    | Types.Checkpoint_vote v -> Types.Checkpoint_vote { v with ck_voter = (v.ck_voter + 1) mod 4 }
    | m -> m
  in
  (* Replica 1's signature claimed for replica 2. *)
  Ck_manager.on_vote m0.m ~global_seq:3 (forge (vote 1));
  checki "forged vote rejected" 1 (counter m0 "ck.votes_rejected");
  Ck_manager.on_vote m0.m ~global_seq:3 (vote 0);
  Ck_manager.on_vote m0.m ~global_seq:3 (vote 0);
  Ck_manager.on_vote m0.m ~global_seq:3 (vote 1);
  checkb "a duplicate does not make a quorum" true (latest_seq m0 = None);
  (* Beyond the horizon (4096 + 4 intervals past the merge position) a
     vote is dropped unchecked: a forgery there is not even counted, and
     an honest one is not buffered for the boundary. *)
  let far = -4096 - 12 + 2 in
  Ck_manager.on_vote m0.m ~global_seq:far (forge (vote 3));
  checki "beyond the horizon: refused before the signature check" 1
    (counter m0 "ck.votes_rejected");
  Ck_manager.on_vote m0.m ~global_seq:far (vote 2);
  checkb "beyond the horizon: not counted" true (latest_seq m0 = None);
  Ck_manager.on_vote m0.m ~global_seq:3 (vote 2);
  checkb "within the horizon: certifies" true (latest_seq m0 = Some 2);
  (* At or below the certified seq a vote is stale: refused unchecked. *)
  Ck_manager.on_vote m0.m ~global_seq:3 (forge (vote 3));
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
  feed fs ~from:0 ~upto:2 ~floor:10;
  certify_all fs ~seq:2;
  checkb "first install: no gate" true (!(m0.gates) = []);
  feed fs ~from:3 ~upto:5 ~floor:20;
  certify_all fs ~seq:5;
  checkb "second install certified" true (latest_seq m0 = Some 5);
  Alcotest.(check (list (pair int int)))
    "gates at the replaced checkpoint's floors" [ (0, 10); (1, 11); (2, 12) ]
    (List.rev !(m0.gates))

let test_truncation_keeps_two_marks () =
  let fs = List.init 4 (fun id -> fake ~wal_devices:2 id) in
  let m0 = List.hd fs in
  List.iteri
    (fun k seq ->
      Array.iter (fun w -> Wal.append w ~size:1 ignore) m0.wals;
      feed fs ~from:(seq - 2) ~upto:seq ~floor:(10 * (k + 1));
      certify_all fs ~seq)
    [ 2; 5; 8; 11 ];
  checki "four installs" 4 (counter m0 "ck.certified");
  Array.iteri
    (fun d w ->
      checki (Printf.sprintf "device %d rotated per install" d) 4 (Wal.rotations w);
      Alcotest.(check (list int))
        (Printf.sprintf "device %d keeps the last two marks" d)
        [ 3; 4 ] (List.map fst (Wal.segments w)))
    m0.wals;
  checkb "each device rotated on its owner" true
    (List.for_all (fun d -> List.length (List.filter (Int.equal d) !(m0.owners)) >= 4) [ 0; 1 ])

let test_unverifiable_blob_never_adopted () =
  let fs = cluster () in
  feed fs ~from:0 ~upto:2 ~floor:10;
  certify_all fs ~seq:2;
  let good = Option.get (Ck_manager.served_blob (List.nth fs 1).m) in
  let fresh = fake 0 in
  let done_ = ref 0 in
  Ck_manager.recover fresh.m ~wipe:true;
  Ck_manager.probe fresh.m ~on_done:(fun () -> incr done_);
  checkb "probing" true (Ck_manager.probing fresh.m);
  Alcotest.(check (list int)) "first peer asked" [ 1 ] !(fresh.probes);
  Ck_manager.on_blob fresh.m ~global_seq:0 (Some "garbage");
  (* A real checkpoint with one byte of its aggregate flipped. *)
  let tampered =
    Bytes.to_string
      (Bytes.mapi
         (fun i c -> if i = String.length good - 1 then Char.chr (Char.code c lxor 1) else c)
         (Bytes.of_string good))
  in
  Ck_manager.on_blob fresh.m ~global_seq:0 (Some tampered);
  checki "both rejected" 2 (counter fresh "ck.adopt_rejected");
  checkb "nothing adopted" true (latest_seq fresh = None && !(fresh.rewinds) = []);
  Alcotest.(check (list int)) "rotated to the next peers" [ 3; 2; 1 ] !(fresh.probes);
  (* Silence moves the probe on too; only the newest retry timer is live. *)
  let due = Queue.copy fresh.timers in
  Queue.clear fresh.timers;
  Queue.iter (fun f -> f ()) due;
  Alcotest.(check (list int)) "retried on the next peer" [ 1; 3; 2; 1 ] !(fresh.probes);
  Ck_manager.on_blob fresh.m ~global_seq:0 (Some good);
  checkb "a verified blob is adopted" true (latest_seq fresh = Some 2);
  Alcotest.(check (list int)) "merge rewound to it" [ 2 ] !(fresh.rewinds);
  checki "resolved once" 1 !done_;
  checkb "probe over" false (Ck_manager.probing fresh.m)

(* A retry armed by one probe must not move a later probe at the same
   attempt (a crash and a quick re-recover inside the retry window). *)
let test_stale_retry_ignored () =
  let f = fake 0 in
  Ck_manager.recover f.m ~wipe:true;
  Ck_manager.probe f.m ~on_done:ignore;
  let stale = Queue.pop f.timers in
  Ck_manager.recover f.m ~wipe:true;
  Ck_manager.probe f.m ~on_done:ignore;
  Alcotest.(check (list int)) "both probes asked peer 1" [ 1; 1 ] !(f.probes);
  stale ();
  Alcotest.(check (list int)) "the stale retry sends nothing" [ 1; 1 ] !(f.probes);
  (Queue.pop f.timers) ();
  Alcotest.(check (list int)) "the live retry moves on one peer" [ 2; 1; 1 ] !(f.probes)

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
  (* 142 certifications plus the restart's restore from the local device. *)
  checki "checkpoints observed" 143 (List.length seen);
  checks "digest of the certified sequence"
    "290341cd4325ef2341c64759faae530d398fcbda34cff5c0b4602797067e36dc"
    (Digest32.hex (Digest32.of_string (String.concat ";" seen)));
  checki "ck.certified" 142 (Telemetry.snap_counter tel "ck.certified");
  checki "ck.wal_truncated_entries" 3750 (Telemetry.snap_counter tel "ck.wal_truncated_entries")

let suite =
  [
    ( "core.ck_manager",
      [
        Alcotest.test_case "quorum certifies once" `Quick test_quorum_certifies_once;
        Alcotest.test_case "bad votes refused" `Quick test_bad_votes_refused;
        Alcotest.test_case "install gates the replaced floors" `Quick
          test_install_gates_previous_floors;
        Alcotest.test_case "truncation keeps two marks" `Quick test_truncation_keeps_two_marks;
        Alcotest.test_case "unverifiable blob never adopted" `Quick
          test_unverifiable_blob_never_adopted;
        Alcotest.test_case "stale probe retry ignored" `Quick test_stale_retry_ignored;
        Alcotest.test_case "lifecycle pin" `Quick test_lifecycle_pin;
      ] );
  ]
