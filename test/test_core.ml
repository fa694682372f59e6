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
  (* Direct observer: dag ids in the global log must rotate 0,1,2,0,1,2... *)
  let engine = Shoalpp_sim.Engine.create () in
  let topology = Topology.clique ~regions:4 ~one_way_ms:15.0 in
  let assignment = Topology.assign_round_robin topology ~n:4 in
  let net =
    Shoalpp_sim.Netmodel.create ~engine ~topology ~assignment
      ~fault:(Faults.schedule Faults.none ~n:4)
      ~config:Shoalpp_sim.Netmodel.default_config ~seed:5 ()
  in
  let world = Shoalpp_backend.Backend_sim.of_net net in
  let protocol = { (Config.shoalpp ~committee) with Config.stagger_ms = 15.0 } in
  let mempools = Array.init 4 (fun _ -> Shoalpp_workload.Mempool.create ()) in
  let dag_ids = ref [] in
  let replicas =
    Array.init 4 (fun replica_id ->
        let on_ordered (o : Replica.ordered) =
          if replica_id = 0 then
            dag_ids := o.Replica.segment.Driver.dag_id :: !dag_ids
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
  List.iteri
    (fun i dag -> checki (Printf.sprintf "position %d" i) (i mod 3) dag)
    ids

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
  let spp = latency { (Config.shoalpp ~committee) with Config.stagger_ms = 20.0 } in
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
  let star = latency { (Config.shoalpp ~committee) with Config.stagger_ms = 20.0 } in
  let a2a =
    latency (Config.with_all_to_all { (Config.shoalpp ~committee) with Config.stagger_ms = 20.0 })
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
        Alcotest.test_case "log lengths close" `Quick test_interleaved_log_lengths_match;
        Alcotest.test_case "presets run" `Slow test_shoal_and_bullshark_presets_run;
        Alcotest.test_case "latency ordering" `Slow test_shoalpp_beats_shoal_beats_bullshark;
        Alcotest.test_case "all-to-all variant" `Slow test_all_to_all_faster_fewer_md;
        Alcotest.test_case "determinism" `Quick test_determinism_same_seed;
        Alcotest.test_case "wal active" `Quick test_wal_active;
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
