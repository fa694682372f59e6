(* Tests for the baseline systems: Jolteon (leader-based 2-chain BFT) and
   the Mysticeti-style uncertified DAG — liveness, safety, fault handling
   and the structural behaviours the paper's comparison rests on. *)

module Jolteon = Shoalpp_baselines.Jolteon
module Mysticeti = Shoalpp_baselines.Mysticeti
module E = Shoalpp_baselines.Experiment
module Cluster = Shoalpp_runtime.Cluster
module Harness = Shoalpp_runtime.Harness
module Report = Shoalpp_runtime.Report
module Telemetry = Shoalpp_support.Telemetry
module Committee = Shoalpp_dag.Committee
module Topology = Shoalpp_sim.Topology
module Faults = Shoalpp_sim.Faults

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let committee = Committee.make ~n:4 ~cluster_seed:21 ()

let run_setup protocol ~seed ?(scenario = Faults.none) ?(load = 200.0) () =
  {
    (Cluster.default_setup ~protocol) with
    Cluster.topology = Topology.clique ~regions:4 ~one_way_ms:20.0;
    scenario;
    load_tps = load;
    warmup_ms = 500.0;
    seed;
  }

let jolteon_setup = run_setup (Jolteon.default_setup ~committee) ~seed:11
let mysticeti_setup = run_setup (Mysticeti.default_setup ~committee) ~seed:13

(* The shared harness audit: digest-consistent prefixes, no transaction
   ordered twice, recovered logs extending their pre-crash logs. *)
let audit_ok c = Harness.ok (Cluster.audit c)

(* ------------------------------------------------------------------ *)
(* Jolteon *)

let test_jolteon_commits () =
  let c = Jolteon.create (jolteon_setup ()) in
  Cluster.run c ~duration_ms:8_000.0;
  let r = Cluster.report c ~duration_ms:8_000.0 in
  checkb "commits near offered load" true (r.Report.committed_tps > 150.0);
  checkb "chains consistent" true (audit_ok c);
  checki "no timeouts in fault-free run" 0 (Jolteon.timeouts_fired c);
  checkb "rounds advance responsively" true (Jolteon.rounds_reached c > 40)

let test_jolteon_latency_about_5md () =
  (* 20 ms one-way: gossip (1) + queue + propose (1) + vote (1) + QC in next
     proposal (1) + learn (1) ~ 5-7 md plus queueing. *)
  let c = Jolteon.create (jolteon_setup ()) in
  Cluster.run c ~duration_ms:10_000.0;
  let r = Cluster.report c ~duration_ms:10_000.0 in
  checkb (Printf.sprintf "p50 in 6-13 md band (got %.0f)" r.Report.latency_p50) true
    (r.Report.latency_p50 > 120.0 && r.Report.latency_p50 < 280.0)

let test_jolteon_crashed_leader_recovers () =
  (* Crash one replica at t=2s: rounds it leads time out, then reputation
     drops it from the schedule and progress returns to responsive pace. *)
  let c = Jolteon.create (jolteon_setup ~scenario:(Faults.crash ~at:2_000.0 ()) ()) in
  Cluster.run c ~duration_ms:20_000.0;
  let r = Cluster.report c ~duration_ms:20_000.0 in
  checkb "timeouts fired for dead leader" true (Jolteon.timeouts_fired c > 0);
  checkb "still consistent" true (audit_ok c);
  checkb "throughput recovers" true (r.Report.committed_tps > 100.0)

let test_jolteon_reputation_excludes_crashed () =
  (* After recovery, rounds advance without further timeouts: measure the
     tail of the run separately by counting timeouts before/after. *)
  let c = Jolteon.create (jolteon_setup ~scenario:(Faults.crash ~at:1_000.0 ()) ()) in
  Cluster.run c ~duration_ms:15_000.0;
  let timeouts_at_15s = Jolteon.timeouts_fired c in
  Cluster.run c ~duration_ms:30_000.0;
  let late_timeouts = Jolteon.timeouts_fired c - timeouts_at_15s in
  (* A handful of boundary-divergence timeouts are tolerable; the crashed
     leader must no longer cost a 1.5 s timeout every 4th round (which would
     be ~90 timeouts in this window). *)
  checkb
    (Printf.sprintf "reputation suppresses later timeouts (late=%d)" late_timeouts)
    true (late_timeouts <= 12)

let test_jolteon_crash_f_keeps_liveness () =
  let scenario = Faults.crash () in
  let c = Jolteon.create (jolteon_setup ~scenario ()) in
  Cluster.run c ~duration_ms:15_000.0;
  let r = Cluster.report c ~duration_ms:15_000.0 in
  checkb "liveness with f crashed" true (r.Report.committed > 1000);
  checkb "consistent" true (audit_ok c)

(* ------------------------------------------------------------------ *)
(* Mysticeti *)

let test_mysticeti_commits_fast () =
  let c = Mysticeti.create (mysticeti_setup ()) in
  Cluster.run c ~duration_ms:8_000.0;
  let r = Cluster.report c ~duration_ms:8_000.0 in
  checkb "commits near offered load" true (r.Report.committed_tps > 150.0);
  checkb "logs consistent" true (audit_ok c);
  (* Uncertified best case: ~3 one-way delays per commit => very low latency
     on clean 20ms links. *)
  checkb (Printf.sprintf "low latency (got %.0f)" r.Report.latency_p50) true
    (r.Report.latency_p50 < 150.0);
  checki "no fetches on clean network" 0 (Mysticeti.fetches_sent c)

let test_mysticeti_rounds_fast () =
  let c = Mysticeti.create (mysticeti_setup ()) in
  Cluster.run c ~duration_ms:5_000.0;
  (* 1md rounds at 20ms links: far more rounds than a certified DAG. *)
  checkb "many rounds" true (Mysticeti.rounds_reached c > 100)

let test_mysticeti_drops_cause_critical_path_fetches () =
  let scenario = Faults.drop ~rate:0.05 ~from_time:1_000.0 () in
  let clean = Mysticeti.create (mysticeti_setup ()) in
  Cluster.run clean ~duration_ms:10_000.0;
  let lossy = Mysticeti.create (mysticeti_setup ~scenario ()) in
  Cluster.run lossy ~duration_ms:10_000.0;
  checkb "fetches happen under drops" true (Mysticeti.fetches_sent lossy > 0);
  checkb "blocks stall under drops" true (Mysticeti.blocks_stalled lossy > 0);
  checkb "safety holds under drops" true (audit_ok lossy);
  let l_clean = (Cluster.report clean ~duration_ms:10_000.0).Report.latency_p50 in
  let l_lossy = (Cluster.report lossy ~duration_ms:10_000.0).Report.latency_p50 in
  checkb
    (Printf.sprintf "drops hurt latency (%.0f -> %.0f)" l_clean l_lossy)
    true (l_lossy > l_clean)

let test_mysticeti_crash_f_keeps_liveness () =
  let scenario = Faults.crash () in
  let c = Mysticeti.create (mysticeti_setup ~scenario ()) in
  Cluster.run c ~duration_ms:12_000.0;
  let r = Cluster.report c ~duration_ms:12_000.0 in
  checkb "liveness with f crashed" true (r.Report.committed > 500);
  checkb "consistent" true (audit_ok c)

let test_mysticeti_crash_latency_penalty_vs_shoalpp () =
  (* Fig 7's key contrast at miniature scale: with f crashed, Mysticeti has
     no reputation and keeps electing dead anchors (indirect resolutions),
     while Shoal++ routes around them. Compare latency degradation ratios. *)
  let scenario = Faults.crash () in
  let myst_clean = Mysticeti.create (mysticeti_setup ()) in
  Cluster.run myst_clean ~duration_ms:12_000.0;
  let myst_crash = Mysticeti.create (mysticeti_setup ~scenario ()) in
  Cluster.run myst_crash ~duration_ms:12_000.0;
  let m0 = (Cluster.report myst_clean ~duration_ms:12_000.0).Report.latency_p50 in
  let m1 = (Cluster.report myst_crash ~duration_ms:12_000.0).Report.latency_p50 in
  checkb (Printf.sprintf "crash hurts mysticeti (%.0f -> %.0f)" m0 m1) true (m1 > 1.5 *. m0)

(* ------------------------------------------------------------------ *)
(* Crash and warm resume: the shared audit judges the baselines' recovery
   exactly as it judges Shoal++'s WAL replay. *)

let check_crash_recover name c =
  Cluster.run c ~duration_ms:8_000.0;
  let a = Cluster.audit c in
  checki (name ^ ": no duplicate orders") 0 a.Cluster.duplicate_orders;
  checkb (name ^ ": recovered log extends its pre-crash log") true a.Cluster.recovery_prefix_ok;
  checkb (name ^ ": consistent prefixes") true a.Cluster.consistent_prefixes;
  checkb (name ^ ": anchors ordered") true (a.Cluster.anchors_per_lane.(0) > 0);
  let r = Cluster.report c ~duration_ms:8_000.0 in
  checki (name ^ ": one restart") 1 (Telemetry.snap_counter r.Report.telemetry "fault.recoveries")

let crash_recover = Faults.crash_recover ~count:1 ~at:2_000.0 ~recover_at:4_000.0 ()

let test_jolteon_crash_recover_audit () =
  check_crash_recover "jolteon" (Jolteon.create (jolteon_setup ~scenario:crash_recover ()))

let test_mysticeti_crash_recover_audit () =
  check_crash_recover "mysticeti" (Mysticeti.create (mysticeti_setup ~scenario:crash_recover ()))

(* ------------------------------------------------------------------ *)
(* Dispatch: Experiment.run reaches both baselines and audits them. *)

let test_dispatch_and_audit () =
  let params =
    {
      E.default_params with
      E.n = 4;
      load_tps = 100.0;
      duration_ms = 4_000.0;
      warmup_ms = 500.0;
      topology = Topology.clique ~regions:4 ~one_way_ms:20.0;
    }
  in
  let jo = E.run E.Jolteon params in
  checkb "jolteon dispatch" true (jo.E.report.Report.name = "jolteon");
  checkb "jolteon commits" true (jo.E.report.Report.committed > 100);
  checkb "jolteon audit" true jo.E.audit_ok;
  let my = E.run E.Mysticeti params in
  checkb "mysticeti dispatch" true (my.E.report.Report.name = "mysticeti");
  checkb "mysticeti commits" true (my.E.report.Report.committed > 100);
  checkb "mysticeti audit" true my.E.audit_ok

let suite =
  [
    ( "baselines.jolteon",
      [
        Alcotest.test_case "commits" `Quick test_jolteon_commits;
        Alcotest.test_case "latency band" `Quick test_jolteon_latency_about_5md;
        Alcotest.test_case "crashed leader recovers" `Slow test_jolteon_crashed_leader_recovers;
        Alcotest.test_case "reputation excludes crashed" `Slow test_jolteon_reputation_excludes_crashed;
        Alcotest.test_case "liveness with f crashed" `Quick test_jolteon_crash_f_keeps_liveness;
        Alcotest.test_case "crash-recover audit" `Quick test_jolteon_crash_recover_audit;
      ] );
    ( "baselines.mysticeti",
      [
        Alcotest.test_case "commits fast" `Quick test_mysticeti_commits_fast;
        Alcotest.test_case "1md rounds" `Quick test_mysticeti_rounds_fast;
        Alcotest.test_case "drops cause fetches" `Quick test_mysticeti_drops_cause_critical_path_fetches;
        Alcotest.test_case "liveness with f crashed" `Quick test_mysticeti_crash_f_keeps_liveness;
        Alcotest.test_case "crash latency penalty" `Slow test_mysticeti_crash_latency_penalty_vs_shoalpp;
        Alcotest.test_case "crash-recover audit" `Quick test_mysticeti_crash_recover_audit;
      ] );
    ( "baselines.dispatch",
      [ Alcotest.test_case "dispatch and audit" `Quick test_dispatch_and_audit ] );
  ]
