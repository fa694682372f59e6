(* End-to-end tests of the Shoal++ replica and the cluster runtime: commit
   progress, log consistency, fault tolerance, multi-DAG interleaving, and
   protocol presets. Small clusters and short simulated runs keep them
   fast. *)

module E = Shoalpp_baselines.Experiment
module Cluster = Shoalpp_runtime.Cluster
module Report = Shoalpp_runtime.Report
module Ledger = Shoalpp_runtime.Ledger
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Committee = Shoalpp_dag.Committee
module Instance = Shoalpp_dag.Instance
module Anchors = Shoalpp_consensus.Anchors
module Driver = Shoalpp_consensus.Driver
module Types = Shoalpp_dag.Types
module Topology = Shoalpp_sim.Topology
module Faults = Shoalpp_sim.Faults
module Transaction = Shoalpp_workload.Transaction

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let committee = Committee.make ~n:4 ~cluster_seed:3 ()

let small_setup ?(protocol = Config.shoalpp ~committee) ?(load = 200.0) ?(scenario = Faults.none)
    () =
  {
    (Cluster.default_setup ~protocol) with
    Cluster.topology = Topology.clique ~regions:4 ~one_way_ms:20.0;
    load_tps = load;
    warmup_ms = 500.0;
    scenario;
  }

let run_small ?protocol ?load ?scenario ~duration () =
  let c = Cluster.create (small_setup ?protocol ?load ?scenario ()) in
  Cluster.run c ~duration_ms:duration;
  c

(* ------------------------------------------------------------------ *)
(* The lanes' round-phase gate *)

module Telemetry = Shoalpp_support.Telemetry
module Trace = Shoalpp_sim.Trace

let lane_hist c name =
  match Telemetry.get_histogram (Cluster.telemetry c) name with
  | Some h -> h
  | None -> Alcotest.failf "%s was never recorded" name

(* On a clean uniform network every lane's rounds last alike, so the gate
   alone orders the lanes: at every replica lane j proposes round r no
   earlier than lane j-1 did, and no hold outlasts one P. *)
let test_gate_orders_lanes () =
  let trace = Trace.create ~enabled:true ~capacity:1_000_000 () in
  let c =
    Cluster.create
      {
        (Cluster.default_setup ~protocol:(Config.shoalpp ~committee)) with
        Cluster.topology = Topology.uniform ~delay_ms:25.0;
        net_config = E.clean_net_config;
        load_tps = 400.0;
        warmup_ms = 500.0;
        trace = Some trace;
      }
  in
  Cluster.run c ~duration_ms:5_000.0;
  let entered = Hashtbl.create 4096 in
  List.iter
    (fun (e : Trace.event) ->
      match e.Trace.kind with
      | Trace.Proposal_created { round; _ } ->
        Hashtbl.replace entered (e.Trace.replica, e.Trace.instance, round) e.Trace.time
      | _ -> ())
    (Trace.events trace);
  let checked = ref 0 in
  Hashtbl.iter
    (fun (replica, lane, round) at ->
      if lane > 0 then begin
        incr checked;
        match Hashtbl.find_opt entered (replica, lane - 1, round) with
        | Some before when before <= at -> ()
        | Some before ->
          Alcotest.failf "replica %d: lane %d entered round %d at %.2f, lane %d at %.2f" replica
            lane round at (lane - 1) before
        | None ->
          Alcotest.failf "replica %d: lane %d entered round %d, lane %d never did" replica lane
            round (lane - 1)
      end)
    entered;
  checkb (Printf.sprintf "%d lane entries checked" !checked) true (!checked > 400);
  let held = lane_hist c "lane.gate_held_ms" and period = lane_hist c "lane.period_ms" in
  checkb "the gate held lanes" true (Telemetry.Histogram.count held > 0);
  checkb
    (Printf.sprintf "longest hold %.2f ms <= longest P %.2f ms" (Telemetry.Histogram.max held)
       (Telemetry.Histogram.max period))
    true
    (Telemetry.Histogram.max held <= Telemetry.Histogram.max period)

(* The lanes stay in the same round, a fraction of a round apart, at the
   benchmark's two simulator settings: [lane.round_offset], sampled at
   every lane-0 entry, never exceeds 1, and no lane carries more than 0.55
   of the ordered transactions. *)
let gate_run ~n ~topology ~net_config ~load_tps ~checkpoint_interval ~scenario ~duration_ms =
  let committee = Committee.make ~n ~cluster_seed:3 () in
  let protocol =
    Config.with_checkpoint_interval
      (Config.without_signature_checks (Config.shoalpp ~committee))
      checkpoint_interval
  in
  let c =
    Cluster.create
      {
        (Cluster.default_setup ~protocol) with
        Cluster.topology;
        net_config;
        load_tps;
        warmup_ms = 1_000.0;
        scenario;
        seed = 3;
      }
  in
  Cluster.run c ~duration_ms;
  let snap = Telemetry.snapshot (Cluster.telemetry c) in
  let txns = List.init 3 (fun d -> Telemetry.snap_counter snap (Printf.sprintf "dag%d.txns" d)) in
  let total = List.fold_left ( + ) 0 txns in
  List.iteri
    (fun d x ->
      let share = float_of_int x /. float_of_int (max 1 total) in
      checkb (Printf.sprintf "lane %d carries %.2f of the transactions" d share) true (share <= 0.55))
    txns;
  lane_hist c "lane.round_offset"

let gcp10_setting () =
  gate_run ~n:16 ~topology:(Topology.gcp10 ()) ~net_config:Shoalpp_sim.Netmodel.default_config
    ~load_tps:5_000.0 ~checkpoint_interval:0 ~scenario:Faults.none ~duration_ms:5_000.0

let lifecycle_setting scenario =
  gate_run ~n:10
    ~topology:(Topology.clique ~regions:4 ~one_way_ms:25.0)
    ~net_config:{ Shoalpp_sim.Netmodel.default_config with jitter_ms = 0.0; epoch_ms = 0.0 }
    ~load_tps:2_000.0 ~checkpoint_interval:12 ~scenario ~duration_ms:12_000.0

let test_gate_round_offset_pinned () =
  List.iter
    (fun (label, h) ->
      checkb (label ^ ": offset sampled") true (Telemetry.Histogram.count h > 100);
      checkb
        (Printf.sprintf "%s: lane round offset max %.0f" label (Telemetry.Histogram.max h))
        true
        (Telemetry.Histogram.max h <= 1.0))
    [ ("gcp10", gcp10_setting ()); ("lifecycle, fault-free", lifecycle_setting Faults.none) ];
  (* With the benchmark's crash (4 s) and restart (7 s), the lanes leave
     their phase while one replica is down, and the gate brings them back:
     the offset is 1 at the median (in the histogram bucket holding 1) and
     under 1.1 on average. *)
  let h =
    lifecycle_setting (Faults.crash_recover ~count:1 ~at:4_000.0 ~recover_at:7_000.0 ())
  in
  checkb
    (Printf.sprintf "lifecycle, crash: offset p50 %.2f, mean %.3f" (Telemetry.Histogram.quantile h 0.5)
       (Telemetry.Histogram.mean h))
    true
    (Float.round (Telemetry.Histogram.quantile h 0.5) = 1.0 && Telemetry.Histogram.mean h < 1.1)

(* ------------------------------------------------------------------ *)
(* Config presets *)

let test_config_presets () =
  let spp = Config.shoalpp ~committee in
  checki "shoal++ runs 3 dags" 3 spp.Config.num_dags;
  checkb "shoal++ fast commit" true spp.Config.fast_commit;
  checkb "shoal++ multi anchor" true (spp.Config.mode = Anchors.All_eligible);
  let sh = Config.shoal ~committee in
  checki "shoal 1 dag" 1 sh.Config.num_dags;
  checkb "shoal no fast commit" false sh.Config.fast_commit;
  checkb "shoal per-round anchor" true (sh.Config.mode = Anchors.One_per_round);
  let bs = Config.bullshark ~committee in
  checkb "bullshark every other round" true (bs.Config.mode = Anchors.Every_other_round);
  checkb "bullshark no reputation" false bs.Config.reputation;
  let more = Config.with_dags sh 3 in
  checki "more dags" 3 more.Config.num_dags;
  checkb "renamed" true (more.Config.name <> sh.Config.name)

let test_config_round_timeout () =
  let spp = Config.round_timeout (Config.shoalpp ~committee) 123.0 in
  checkb "timeout replaced" true
    (match spp.Config.wait_policy with Instance.All_or_timeout t -> t = 123.0 | _ -> false);
  let bs = Config.round_timeout (Config.bullshark ~committee) 77.0 in
  checkb "shape kept" true
    (match bs.Config.wait_policy with Instance.Anchors_or_timeout t -> t = 77.0 | _ -> false)

(* ------------------------------------------------------------------ *)
(* Shoal++ cluster end-to-end *)

let test_cluster_commits_and_is_consistent () =
  let c = run_small ~duration:8_000.0 () in
  let report = Cluster.report c ~duration_ms:8_000.0 in
  checkb "committed most offered load" true
    (report.Report.committed_tps > 150.0);
  checkb "sub-second latency on 20ms links" true (report.Report.latency_p50 < 400.0);
  let audit = Cluster.audit c in
  checkb "consistent prefixes" true audit.Cluster.consistent_prefixes;
  checki "no duplicate ordering" 0 audit.Cluster.duplicate_orders;
  checkb "many segments" true (audit.Cluster.total_segments > 50)

let test_cluster_all_fast_commits_in_good_network () =
  let c = run_small ~duration:6_000.0 () in
  let report = Cluster.report c ~duration_ms:6_000.0 in
  checkb "fast commits dominate" true
    (report.Report.fast_commits > 10 * (report.Report.direct_commits + report.Report.indirect_commits + 1))

let test_cluster_crash_f_replicas_stays_live () =
  let c = run_small ~scenario:(Faults.crash ()) ~duration:8_000.0 () in
  let report = Cluster.report c ~duration_ms:8_000.0 in
  (* 3 of 4 clients still run: ~150 tps offered. *)
  checkb "still commits" true (report.Report.committed_tps > 100.0);
  checkb "consistent" true (Cluster.audit c).Cluster.consistent_prefixes

let test_cluster_crash_mid_run () =
  let c = run_small ~scenario:(Faults.crash ~at:2_000.0 ()) ~duration:8_000.0 () in
  let audit = Cluster.audit c in
  checkb "consistent after mid-run crash" true audit.Cluster.consistent_prefixes;
  checki "no duplicates" 0 audit.Cluster.duplicate_orders;
  (* Survivors keep committing after the crash. *)
  let r = Cluster.report c ~duration_ms:8_000.0 in
  checkb "alive" true (r.Report.committed > 500)

let test_cluster_message_drops_tolerated () =
  let scenario = Faults.drop ~rate:0.05 ~from_time:1_000.0 () in
  let c = run_small ~scenario ~duration:8_000.0 () in
  let audit = Cluster.audit c in
  checkb "drops do not break safety" true audit.Cluster.consistent_prefixes;
  checki "no duplicates" 0 audit.Cluster.duplicate_orders;
  let r = Cluster.report c ~duration_ms:8_000.0 in
  checkb "messages were dropped" true (r.Report.messages_dropped > 0);
  checkb "still commits" true (r.Report.committed_tps > 100.0)

let test_multi_dag_interleave_round_robin () =
  let c = run_small ~duration:5_000.0 () in
  (* Collect the dag ids of the global log in order at replica 0 via a fresh
     run with an observer. *)
  let seen = ref [] in
  let setup = small_setup () in
  let c2 = Cluster.create setup in
  ignore c;
  (* Wrap: re-create replicas is intrusive; instead check the invariant on
     cluster c2 through per-replica segment pending counts staying small. *)
  Cluster.run c2 ~duration_ms:5_000.0;
  Array.iter
    (fun r -> checkb "interleaver keeps up" true (Replica.pending_segments r < 64))
    (Cluster.replicas c2);
  ignore !seen

let test_replica_on_ordered_round_robin_dags () =
  (* Direct observer: the global log is round-major — anchor round r's
     output of lane 0, then lane 1, then lane 2, then round r+1 — and a
     lane's output for a round ends at the segment that closes it. *)
  let engine = Shoalpp_sim.Engine.create () in
  let topology = Topology.clique ~regions:4 ~one_way_ms:15.0 in
  let assignment = Topology.assign_round_robin topology ~n:4 in
  let net =
    Shoalpp_sim.Netmodel.create ~engine ~topology ~assignment
      ~fault:(Faults.schedule Faults.none ~n:4)
      ~config:Shoalpp_sim.Netmodel.default_config ~seed:5 ()
  in
  let world = Shoalpp_backend.Backend_sim.of_net net in
  let protocol = (Config.shoalpp ~committee) in
  let mempools = Array.init 4 (fun _ -> Shoalpp_workload.Mempool.create ()) in
  let dag_ids = ref [] in
  let replicas =
    Array.init 4 (fun replica_id ->
        let on_ordered (o : Replica.ordered) =
          let seg = o.Replica.segment in
          if replica_id = 0 then
            dag_ids :=
              (seg.Driver.anchor.Types.ref_round, seg.Driver.dag_id, seg.Driver.closes)
              :: !dag_ids
        in
        Replica.create ~config:protocol ~replica_id
          ~backend:(Shoalpp_backend.Backend_sim.backend world)
          ~mempool:mempools.(replica_id)
          ~on_ordered ())
  in
  Array.iter Replica.start replicas;
  Shoalpp_sim.Engine.run ~until:3_000.0 engine;
  let ids = List.rev !dag_ids in
  checkb "log nonempty" true (List.length ids > 10);
  List.iter
    (fun dag ->
      checkb (Printf.sprintf "lane %d merged" dag) true
        (List.exists (fun (_, d, _) -> d = dag) ids))
    [ 0; 1; 2 ];
  ignore
    (List.fold_left
       (fun (i, prev) ((round, dag, _) as cur) ->
         (match prev with
         | Some (r, d, closes) ->
           checkb
             (Printf.sprintf "position %d: (round %d, lane %d) after (%d, %d)" i round dag r d)
             true
             (compare (round, dag) (r, d) > 0 || ((round, dag) = (r, d) && not closes))
         | None -> ());
         (i + 1, Some cur))
       (0, None) ids)

let test_interleaved_log_lengths_match () =
  let c = run_small ~duration:6_000.0 () in
  let lengths = Array.map Replica.log_length (Cluster.replicas c) in
  let mn = Array.fold_left min max_int lengths and mx = Array.fold_left max 0 lengths in
  checkb "replicas close in log length" true (mx - mn < 60);
  checkb "logs long" true (mn > 30)

let test_shoal_and_bullshark_presets_run () =
  List.iter
    (fun protocol ->
      let c = run_small ~protocol ~duration:6_000.0 () in
      let report = Cluster.report c ~duration_ms:6_000.0 in
      checkb (protocol.Config.name ^ " commits") true (report.Report.committed > 300);
      checkb (protocol.Config.name ^ " consistent") true
        (Cluster.audit c).Cluster.consistent_prefixes)
    [ Config.shoal ~committee; Config.bullshark ~committee ]

let test_shoalpp_beats_shoal_beats_bullshark () =
  let latency protocol =
    let c = run_small ~protocol ~duration:10_000.0 () in
    (Cluster.report c ~duration_ms:10_000.0).Report.latency_p50
  in
  let spp = latency (Config.shoalpp ~committee) in
  let sh = latency (Config.shoal ~committee) in
  let bs = latency (Config.bullshark ~committee) in
  checkb (Printf.sprintf "shoal++ (%.0f) < shoal (%.0f)" spp sh) true (spp < sh);
  checkb (Printf.sprintf "shoal (%.0f) < bullshark (%.0f)" sh bs) true (sh < bs)

let test_all_to_all_faster_fewer_md () =
  let latency protocol =
    let c = run_small ~protocol ~duration:10_000.0 () in
    let r = Cluster.report c ~duration_ms:10_000.0 in
    checkb (protocol.Config.name ^ " consistent") true
      (Cluster.audit c).Cluster.consistent_prefixes;
    r.Report.latency_p50
  in
  let star = latency (Config.shoalpp ~committee) in
  let a2a =
    latency (Config.with_all_to_all (Config.shoalpp ~committee))
  in
  checkb (Printf.sprintf "a2a faster (%.0f < %.0f)" a2a star) true (a2a < star)

let test_determinism_same_seed () =
  let run () =
    let c = run_small ~duration:4_000.0 () in
    let r = Cluster.report c ~duration_ms:4_000.0 in
    (r.Report.committed, r.Report.latency_p50, r.Report.messages_sent)
  in
  let a = run () and b = run () in
  checkb "identical outcomes" true (a = b)

let test_wal_active () =
  let c = run_small ~duration:3_000.0 () in
  Array.iter
    (fun r ->
      checkb "wal wrote" true (Shoalpp_storage.Wal.appends (Replica.wal r) > 50))
    (Cluster.replicas c)

(* ------------------------------------------------------------------ *)
(* Ledger & Report *)

(* A ledger entry for transaction [id] submitted at [submitted] and ordered
   at [ordered]; the intermediate stamps are irrelevant to the warmup-cut
   summary and series. *)
let ordered_entry ~id ~submitted ~ordered =
  {
    Ledger.le_tx = id;
    le_origin = 0;
    le_dag = 0;
    le_rule = Anchors.Fast_direct;
    le_seq = id;
    le_submitted = submitted;
    le_batched = submitted;
    le_included = submitted;
    le_committed = ordered;
    le_ordered = ordered;
  }

let test_metrics_warmup_exclusion () =
  let l = Ledger.create ~warmup_ms:1_000.0 () in
  Ledger.record l (ordered_entry ~id:1 ~submitted:500.0 ~ordered:900.0);
  Ledger.record l (ordered_entry ~id:2 ~submitted:1_500.0 ~ordered:1_900.0);
  checki "only post-warmup origin commits" 1 (Ledger.committed l);
  checki "latency samples" 1 (Shoalpp_support.Stats.Summary.count (Ledger.latency l))

let test_metrics_series () =
  let l = Ledger.create () in
  for i = 1 to 10 do
    Ledger.record l
      (ordered_entry ~id:i ~submitted:(float_of_int i *. 50.0)
         ~ordered:(float_of_int i *. 50.0 +. 50.0))
  done;
  match Ledger.throughput_series l with
  | [ (_, rate) ] -> checkb "10 commits in 1s window" true (rate = 10.0)
  | l -> Alcotest.failf "expected one window, got %d" (List.length l)

let test_report_fields () =
  let l = Ledger.create () in
  Ledger.record l (ordered_entry ~id:1 ~submitted:100.0 ~ordered:350.0);
  let r =
    Report.make ~name:"x" ~n:4 ~load_tps:10.0 ~duration_ms:1_000.0 ~submitted:5 ~ledger:l
      ~fast_commits:1 ~messages_sent:100 ~messages_dropped:2 ~bytes_sent:1e6 ()
  in
  checki "committed" 1 r.Report.committed;
  checkb "p50 = 250" true (r.Report.latency_p50 = 250.0);
  checkb "tps" true (abs_float (r.Report.committed_tps -. 1.0) < 1e-9);
  checkb "row renders" true (List.length (Report.table_row r) = List.length Report.table_header)

(* ------------------------------------------------------------------ *)
(* Experiment dispatch *)

let test_experiment_dag_config_mapping () =
  let params = { E.default_params with E.n = 4 } in
  let spp = E.dag_config E.Shoalpp params in
  checki "3 dags" 3 spp.Config.num_dags;
  let fa = E.dag_config E.Shoalpp_faster_anchors params in
  checkb "ablation = shoal + fast" true
    (fa.Config.fast_commit && fa.Config.mode = Anchors.One_per_round);
  let mfa = E.dag_config E.Shoalpp_more_faster_anchors params in
  checkb "ablation = multi-anchor, 1 dag" true
    (mfa.Config.num_dags = 1 && mfa.Config.mode = Anchors.All_eligible);
  let md = E.dag_config E.Shoal_more_dags params in
  checki "shoal more dags" 3 md.Config.num_dags;
  checkb "baselines rejected" true
    (match E.dag_config E.Jolteon params with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_experiment_runs_dag_system () =
  let params =
    {
      E.default_params with
      E.n = 4;
      load_tps = 100.0;
      duration_ms = 5_000.0;
      warmup_ms = 500.0;
      topology = Topology.clique ~regions:4 ~one_way_ms:20.0;
    }
  in
  let o = E.run E.Shoalpp params in
  checkb "audit ok" true o.E.audit_ok;
  checkb "commits" true (o.E.report.Report.committed > 200);
  checkb "series populated" true (List.length o.E.throughput_series > 2)

(* ------------------------------------------------------------------ *)
(* The Alg. 3 merge on synthetic lane streams.                          *)

module Merge = Shoalpp_core.Merge

(* A lane's segment: (anchor round, anchor author, closes). *)
let lane_segment ~dag (round, author, closes) =
  {
    Driver.dag_id = dag;
    anchor = { Types.ref_round = round; ref_author = author; ref_digest = Shoalpp_crypto.Digest32.zero };
    kind = Driver.Fast;
    nodes = [];
    committed_at = 0.0;
    closes;
    resume = None;
  }

type merged = Seg of int * int * int (* lane, round, author *) | Round_end of int

(* Push [arrivals] one at a time, popping all that merges after each:
   the merged segments and round ends, in order. *)
let run_merge ~lanes arrivals =
  let m = Merge.create ~lanes in
  let out = ref [] in
  let rec drain () =
    match Merge.pop m ~on_round:(fun r -> out := Round_end r :: !out) with
    | Some s ->
      out := Seg (s.Driver.dag_id, s.Driver.anchor.Types.ref_round, s.Driver.anchor.Types.ref_author) :: !out;
      drain ()
    | None -> ()
  in
  List.iter
    (fun s ->
      Merge.push m s;
      drain ())
    arrivals;
  (List.rev !out, Merge.pending m)

let segs_of out = List.filter_map (function Seg (d, r, a) -> Some (d, r, a) | Round_end _ -> None) out

(* The specification: every lane's stream, stably sorted by (anchor round,
   lane). *)
let round_major streams =
  List.stable_sort
    (fun (d, r, _) (d', r', _) -> compare (r, d) (r', d'))
    (List.concat (List.mapi (fun d l -> List.map (fun (r, a, _) -> (d, r, a)) l) streams))

let test_merge_round_major () =
  (* Lane 0 leaves round 3 open and skips to round 5 (round 4 empty);
     lane 1 commits nothing in round 3; lane 2 nothing in rounds 2 and 5.
     Rounds 1 and 4 are multi-segment bursts. *)
  let lane0 = [ (1, 0, false); (1, 1, true); (2, 0, true); (3, 0, false); (5, 2, true); (6, 0, true) ] in
  let lane1 = [ (1, 1, true); (2, 0, false); (2, 2, true); (4, 1, true); (5, 0, true); (6, 1, true) ] in
  let lane2 =
    [ (1, 2, false); (1, 3, true); (3, 0, true); (4, 0, false); (4, 1, false); (4, 3, true); (6, 2, true) ]
  in
  let streams = [ lane0; lane1; lane2 ] in
  let by_lane = List.concat (List.mapi (fun dag l -> List.map (lane_segment ~dag) l) streams) in
  let out, pending = run_merge ~lanes:3 by_lane in
  Alcotest.(check (list (triple int int int)))
    "round-major"
    [
      (0, 1, 0); (0, 1, 1); (1, 1, 1); (2, 1, 2); (2, 1, 3);
      (0, 2, 0); (1, 2, 0); (1, 2, 2);
      (0, 3, 0); (2, 3, 0);
      (1, 4, 1); (2, 4, 0); (2, 4, 1); (2, 4, 3);
      (0, 5, 2); (1, 5, 0);
      (0, 6, 0); (1, 6, 1); (2, 6, 2);
    ]
    (segs_of out);
  checkb "= the stable (round, lane) sort" true (segs_of out = round_major streams);
  checki "nothing left queued" 0 pending;
  let ends = List.filter_map (function Round_end r -> Some r | Seg _ -> None) out in
  Alcotest.(check (list int)) "every round ends once, in order" [ 0; 1; 2; 3; 4; 5; 6 ] ends;
  (* Round 0 ends only once every lane has committed above it; with lane
     1's round 1 only, round 2 waits at lane 1. *)
  let lane0_only = List.map (lane_segment ~dag:0) lane0 in
  let out, pending = run_merge ~lanes:3 lane0_only in
  checkb "lane 0 alone merges nothing" true (segs_of out = [] && pending = 6);
  let head n l = List.filteri (fun i _ -> i < n) l in
  let out, pending =
    run_merge ~lanes:3
      (lane0_only
      @ List.map (lane_segment ~dag:1) (head 1 lane1)
      @ List.map (lane_segment ~dag:2) (head 2 lane2))
  in
  Alcotest.(check (list (triple int int int)))
    "round 2 waits at lane 1"
    [ (0, 1, 0); (0, 1, 1); (1, 1, 1); (2, 1, 2); (2, 1, 3); (0, 2, 0) ]
    (segs_of out);
  checki "lane 0's later rounds stay queued" 3 pending;
  (* One lane: the merge is the identity. *)
  let out, _ = run_merge ~lanes:1 (List.map (lane_segment ~dag:0) lane2) in
  Alcotest.(check (list (triple int int int))) "k = 1 is the identity"
    (List.map (fun (r, a, _) -> (0, r, a)) lane2)
    (segs_of out)

(* Per-lane streams at k in 1..4: rounds 1..8, each empty or a burst of
   up to 3 segments whose last one closes the round or (a [Skip_to]) does
   not; every stream ends with a closing segment in round 9, so the whole
   input merges. The arrival order across lanes comes from [choices]. *)
let gen_merge_input =
  QCheck.Gen.(
    int_range 1 4 >>= fun k ->
    list_repeat k
      (list_repeat 8 (pair (int_bound 3) (frequency [ (3, return true); (1, return false) ])))
    >>= fun shapes ->
    list_repeat 200 (int_bound 3) >>= fun choices -> return (k, shapes, choices))

let streams_of_shapes shapes =
  List.map
    (fun shape ->
      List.concat
        (List.mapi
           (fun i (count, closes) ->
             List.init count (fun a -> (i + 1, a, a = count - 1 && closes)))
           shape)
      @ [ (9, 0, true) ])
    shapes

(* Interleave the lanes' streams, each in its own order, picking the next
   lane from [choices] (wrapping, skipping exhausted lanes). *)
let interleave_arrivals streams choices =
  let queues = Array.of_list (List.mapi (fun dag l -> List.map (lane_segment ~dag) l) streams) in
  let k = Array.length queues in
  let out = ref [] in
  let choices = ref choices in
  while Array.exists (fun q -> q <> []) queues do
    let c = match !choices with c :: rest -> choices := rest; c | [] -> 0 in
    let rec pick d = if queues.(d mod k) <> [] then d mod k else pick (d + 1) in
    let d = pick c in
    (match queues.(d) with s :: rest -> out := s :: !out; queues.(d) <- rest | [] -> ());
  done;
  List.rev !out

let prop_merge_arrival_independent =
  QCheck.Test.make ~name:"any arrival order merges to the same sequence" ~count:300
    (QCheck.make gen_merge_input)
    (fun (k, shapes, choices) ->
      let streams = streams_of_shapes shapes in
      let lane_order =
        List.concat (List.mapi (fun dag l -> List.map (lane_segment ~dag) l) streams)
      in
      let reference, _ = run_merge ~lanes:k lane_order in
      let out, pending = run_merge ~lanes:k (interleave_arrivals streams choices) in
      (* Each round's end comes after all of its segments and before any
         of a higher round. *)
      let rec ends_ok seen = function
        | [] -> true
        | Seg (_, r, _) :: rest -> ends_ok (r :: seen) rest
        | Round_end r :: rest ->
          List.for_all (fun r' -> r' <= r) seen
          && List.for_all (function Seg (_, r', _) -> r' > r | Round_end _ -> true) rest
          && ends_ok seen rest
      in
      out = reference && pending = 0
      && segs_of out = round_major streams
      && ends_ok [] out)

let suite =
  [
    ( "core.config",
      [
        Alcotest.test_case "presets" `Quick test_config_presets;
        Alcotest.test_case "round timeout" `Quick test_config_round_timeout;
      ] );
    ( "core.cluster",
      [
        Alcotest.test_case "commits + consistent" `Quick test_cluster_commits_and_is_consistent;
        Alcotest.test_case "fast commits dominate" `Quick test_cluster_all_fast_commits_in_good_network;
        Alcotest.test_case "crash f replicas" `Quick test_cluster_crash_f_replicas_stays_live;
        Alcotest.test_case "crash mid-run" `Quick test_cluster_crash_mid_run;
        Alcotest.test_case "message drops tolerated" `Quick test_cluster_message_drops_tolerated;
        Alcotest.test_case "interleaver keeps up" `Quick test_multi_dag_interleave_round_robin;
        Alcotest.test_case "round-robin dag ids" `Quick test_replica_on_ordered_round_robin_dags;
        Alcotest.test_case "merge is round-major" `Quick test_merge_round_major;
        QCheck_alcotest.to_alcotest prop_merge_arrival_independent;
        Alcotest.test_case "log lengths close" `Quick test_interleaved_log_lengths_match;
        Alcotest.test_case "presets run" `Slow test_shoal_and_bullshark_presets_run;
        Alcotest.test_case "latency ordering" `Slow test_shoalpp_beats_shoal_beats_bullshark;
        Alcotest.test_case "all-to-all variant" `Slow test_all_to_all_faster_fewer_md;
        Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
        Alcotest.test_case "wal active" `Quick test_wal_active;
      ] );
    ( "core.phase_gate",
      [
        Alcotest.test_case "lanes enter rounds in order" `Quick test_gate_orders_lanes;
        Alcotest.test_case "round offset pinned" `Slow test_gate_round_offset_pinned;
      ] );
    ( "runtime.metrics",
      [
        Alcotest.test_case "warmup exclusion" `Quick test_metrics_warmup_exclusion;
        Alcotest.test_case "series" `Quick test_metrics_series;
        Alcotest.test_case "report fields" `Quick test_report_fields;
      ] );
    ( "runtime.experiment",
      [
        Alcotest.test_case "dag config mapping" `Quick test_experiment_dag_config_mapping;
        Alcotest.test_case "runs dag system" `Quick test_experiment_runs_dag_system;
      ] );
  ]
