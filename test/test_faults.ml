(* Fault-injection scenarios (§8 failures): scenario parsing, the
   interval-based fault schedule, WAL retention for replay, reputation
   miss streaks, and full-cluster safety audits under each scenario —
   equivocating anchors, a timed partition with a heal, crash-then-recover
   — for Shoal++ and both baselines, across 3 seeds each.

   The liveness assertion mirrors the acceptance criterion: commits resume
   within 5 simulated seconds of the heal / recovery. *)

module Faults = Shoalpp_sim.Faults
module Engine = Shoalpp_sim.Engine
module Wal = Shoalpp_storage.Wal
module Reputation = Shoalpp_consensus.Reputation
module E = Shoalpp_baselines.Experiment
module Report = Shoalpp_runtime.Report
module Telemetry = Shoalpp_support.Telemetry

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Scenario parsing. *)

let parse_ok s =
  match Faults.parse s with
  | Ok t -> t
  | Error msg -> Alcotest.failf "parse %S failed: %s" s msg

let test_parse_presets () =
  checki "none has no specs" 0 (List.length (parse_ok "none").Faults.specs);
  let byz = parse_ok "byzantine:count=2,kind=silent,from=1000" in
  (match byz.Faults.specs with
  | [ Faults.Byzantine { count; kind; from_time; _ } ] ->
    checki "byz count" 2 count;
    checkb "byz kind" true (kind = Faults.Silent_anchor);
    checkf "byz from" 1000.0 from_time
  | _ -> Alcotest.fail "expected one Byzantine spec");
  let part = parse_ok "partition:from=2000,dur=3000,minority=1" in
  (match part.Faults.specs with
  | [ Faults.Partition { minority; from_time; until_time } ] ->
    checki "minority" 1 minority;
    checkf "part from" 2000.0 from_time;
    checkf "part until" 5000.0 until_time
  | _ -> Alcotest.fail "expected one Partition spec");
  let cr = parse_ok "crash-recover:count=1,at=3000,recover=8000" in
  match cr.Faults.specs with
  | [ Faults.Crash { count; at; recover_at } ] ->
    checki "crash count" 1 count;
    checkf "crash at" 3000.0 at;
    checkb "recover_at" true (recover_at = Some 8000.0)
  | _ -> Alcotest.fail "expected one Crash spec"

let test_parse_errors () =
  let bad s = match Faults.parse s with Ok _ -> Alcotest.failf "parse %S should fail" s | Error _ -> () in
  bad "nonsense";
  bad "byzantine:kind=weird";
  bad "partition:dur=abc";
  bad "crash-recover:count=";
  bad "crash-recover:recovr=6000";
  bad "crash-recover:at=3000,oops";
  bad "byzantine:count=-1";
  bad "drop:rate=2";
  bad "partition:dur=-5";
  bad "crash-recover:recover=2000,at=3000"

(* ------------------------------------------------------------------ *)
(* Interval-based fault timeline. *)

let test_crash_intervals () =
  (* Replica 3, the top id, is down over [1000, 2000). *)
  let f = Faults.schedule (Faults.crash_recover ~at:1000.0 ~recover_at:2000.0 ()) ~n:4 in
  checkb "before crash" false (Faults.is_crashed f ~replica:3 ~time:999.0);
  checkb "during downtime" true (Faults.is_crashed f ~replica:3 ~time:1500.0);
  checkb "after recovery" false (Faults.is_crashed f ~replica:3 ~time:2500.0);
  checkb "other replica unaffected" false (Faults.is_crashed f ~replica:0 ~time:1500.0)

let test_partition_reachability () =
  (* Sides {0, 1} and {2, 3} over [1000, 2000). *)
  let f =
    Faults.schedule (Faults.partition ~minority:2 ~from_time:1000.0 ~duration:1000.0 ()) ~n:4
  in
  checkb "same group" true (Faults.reachable f ~src:0 ~dst:1 ~time:1500.0);
  checkb "same minority group" true (Faults.reachable f ~src:2 ~dst:3 ~time:1500.0);
  checkb "cross group cut" false (Faults.reachable f ~src:0 ~dst:2 ~time:1500.0);
  checkb "before window" true (Faults.reachable f ~src:0 ~dst:2 ~time:500.0);
  checkb "after heal" true (Faults.reachable f ~src:0 ~dst:2 ~time:2500.0);
  checkb "loopback always" true (Faults.reachable f ~src:2 ~dst:2 ~time:1500.0)

let test_schedule_materializes () =
  let scenario = Faults.crash_recover ~count:1 ~at:3000.0 ~recover_at:8000.0 () in
  let f = Faults.schedule scenario ~n:4 in
  checkb "crashed mid-window" true (Faults.is_crashed f ~replica:3 ~time:5000.0);
  checkb "recovered" false (Faults.is_crashed f ~replica:3 ~time:9000.0);
  (match Faults.crash_recoveries scenario ~n:4 with
  | [ (3, at, rec_at) ] ->
    checkf "crash at" 3000.0 at;
    checkf "recover at" 8000.0 rec_at
  | _ -> Alcotest.fail "expected one crash-recovery");
  (* The crash and drop presets: the highest ids down from t=0, the lowest
     ids dropping from [from]; combined, both apply. *)
  let crash = parse_ok "crash:count=2" and drop = parse_ok "drop:count=2,rate=0.5,from=100" in
  let f = Faults.schedule (Faults.combine [ crash; drop ]) ~n:7 in
  Alcotest.(check (list int)) "top ids down at t=0" [ 5; 6 ]
    (List.filter (fun r -> Faults.is_crashed f ~replica:r ~time:0.0) (List.init 7 Fun.id));
  checkf "lowest ids drop" 0.5 (Faults.egress_drop_rate f ~src:1 ~time:100.0);
  checkf "others do not" 0.0 (Faults.egress_drop_rate f ~src:2 ~time:100.0);
  checkf "not before from" 0.0 (Faults.egress_drop_rate f ~src:0 ~time:99.0);
  Alcotest.(check string) "combined name" "crash+drop" (Faults.name (Faults.combine [ crash; drop ]));
  checkb "no recovery, no runtime event" true (Faults.crash_recoveries crash ~n:7 = [])

(* ------------------------------------------------------------------ *)
(* WAL retention: payloads become replayable only once synced. *)

let test_wal_retention () =
  let engine = Engine.create () in
  let wal = Wal.create ~timers:(Shoalpp_backend.Backend_sim.timers engine) ~sync_latency_ms:5.0 ~retain:true () in
  let entry lane s = { Wal.lane; round = 1; payload = (fun () -> s) } in
  Wal.append wal ~entry:(entry 0 "first") (fun () -> ());
  checki "nothing before sync" 0 (List.length (Wal.entries wal));
  Engine.run ~until:100.0 engine;
  Wal.append wal ~entry:(entry 2 "second") (fun () -> ());
  (* The second append is in flight — a crash now would lose it. *)
  Alcotest.(check (list (pair int string))) "only synced payloads" [ (0, "first") ] (Wal.entries wal);
  Engine.run ~until:200.0 engine;
  Alcotest.(check (list (pair int string)))
    "both after sync, with their lanes" [ (0, "first"); (2, "second") ] (Wal.entries wal);
  let plain = Wal.create ~timers:(Shoalpp_backend.Backend_sim.timers engine) ~sync_latency_ms:0.0 () in
  checkb "no retain by default" false (Wal.retains plain)

(* ------------------------------------------------------------------ *)
(* Reputation reacts to agreed anchor skips. *)

let test_reputation_miss_streak () =
  let r = Reputation.create ~n:4 ~miss_threshold:2 ~enabled:true () in
  Reputation.observe_segment r ~anchor_round:1 ~supporters:[ 0; 1; 2; 3 ]
    ~node_positions:[ (1, 0); (1, 1); (1, 2); (1, 3) ];
  checkb "active before skips" true (Reputation.is_active r ~round:2 3);
  Reputation.observe_skip r ~round:2 ~author:3;
  checkb "one skip still active" true (Reputation.is_active r ~round:3 3);
  Reputation.observe_skip r ~round:3 ~author:3;
  checki "streak" 2 (Reputation.miss_streak r 3);
  checkb "excluded at threshold" false (Reputation.is_active r ~round:4 3);
  (* Supporting a segment again clears the streak. *)
  Reputation.observe_segment r ~anchor_round:4 ~supporters:[ 3; 0; 1 ]
    ~node_positions:[ (4, 3) ];
  checki "streak reset" 0 (Reputation.miss_streak r 3);
  checkb "re-admitted" true (Reputation.is_active r ~round:5 3)

(* ------------------------------------------------------------------ *)
(* Full-cluster safety audits under each scenario, per system, 3 seeds. *)

let seeds = [ 1; 2; 3 ]
let duration_ms = 14_000.0

(* Heal / recovery points the scenarios below share; liveness is asserted
   from [recovery_at + 5s] on. *)
let recovery_at = 8_000.0

let scenario_of = function
  | "byzantine" -> Faults.byzantine ~kind:Faults.Equivocate ()
  | "partition" -> Faults.partition ~minority:1 ~from_time:4_000.0 ~duration:4_000.0 ()
  | "crash-recover" -> Faults.crash_recover ~count:1 ~at:3_000.0 ~recover_at:8_000.0 ()
  | other -> Alcotest.failf "unknown scenario %s" other

let params ~scenario ~seed =
  {
    E.default_params with
    E.n = 4;
    load_tps = 300.0;
    duration_ms;
    warmup_ms = 1_000.0;
    topology = Shoalpp_sim.Topology.clique ~regions:2 ~one_way_ms:20.0;
    scenario;
    verify_signatures = false;
    seed;
  }

let run_scenario system name seed =
  let o = E.run system (params ~scenario:(scenario_of name) ~seed) in
  checkb
    (Printf.sprintf "%s/%s seed %d: safety audit" (E.system_name system) name seed)
    true o.E.audit_ok;
  checkb
    (Printf.sprintf "%s/%s seed %d: commits happened" (E.system_name system) name seed)
    true
    (o.E.report.Report.committed_tps > 0.0);
  (* Liveness after the fault clears: some window at/after heal+5s commits. *)
  if name <> "byzantine" then begin
    let tail =
      List.filter_map
        (fun (t, tps) -> if t >= recovery_at +. 5_000.0 then Some tps else None)
        o.E.throughput_series
    in
    checkb
      (Printf.sprintf "%s/%s seed %d: commits resume within 5s of heal"
         (E.system_name system) name seed)
      true
      (List.exists (fun tps -> tps > 0.0) tail)
  end;
  o

let fault_counters (o : E.outcome) =
  let snap = o.E.report.Report.telemetry in
  ( Telemetry.snap_counter snap "fault.equivocations",
    Telemetry.snap_counter snap "fault.partitions_opened"
    + Telemetry.snap_counter snap "fault.partitions_healed",
    Telemetry.snap_counter snap "fault.crashes"
    + Telemetry.snap_counter snap "fault.recoveries" )

let test_system_scenario system name () =
  List.iter
    (fun seed ->
      let o = run_scenario system name seed in
      let byz, part, crash = fault_counters o in
      match name with
      | "byzantine" ->
        checkb "equivocations counted" true (byz > 0)
      | "partition" -> checki "partition open+heal counted" 2 part
      | _ -> checki "crash+recovery counted" 2 crash)
    seeds

(* Same seed, same scenario: the run must be a deterministic replay. *)
let test_determinism () =
  let run () = E.run E.Shoalpp (params ~scenario:(scenario_of "crash-recover") ~seed:5) in
  let a = run () and b = run () in
  checki "committed identical" a.E.report.Report.committed b.E.report.Report.committed;
  checkf "p50 identical" a.E.report.Report.latency_p50 b.E.report.Report.latency_p50;
  checki "messages identical" a.E.report.Report.messages_sent b.E.report.Report.messages_sent

(* Direct cluster-level check that the recovery audit is exercised: the
   rebuilt log of the recovered replica extends its pre-crash prefix. *)
let test_recovery_prefix_audit () =
  let module Cluster = Shoalpp_runtime.Cluster in
  let committee = Shoalpp_dag.Committee.make ~n:4 ~cluster_seed:9 () in
  let protocol =
    Shoalpp_core.Config.without_signature_checks (Shoalpp_core.Config.shoalpp ~committee)
  in
  let setup =
    {
      (Cluster.default_setup ~protocol) with
      Cluster.topology = Shoalpp_sim.Topology.clique ~regions:2 ~one_way_ms:20.0;
      scenario = Faults.crash_recover ~count:1 ~at:3_000.0 ~recover_at:8_000.0 ();
      load_tps = 300.0;
      seed = 3;
    }
  in
  let cluster = Cluster.create setup in
  Cluster.run cluster ~duration_ms;
  let audit = Cluster.audit cluster in
  checkb "prefixes consistent" true audit.Cluster.consistent_prefixes;
  checki "no duplicate orders" 0 audit.Cluster.duplicate_orders;
  checkb "recovery prefix extended" true audit.Cluster.recovery_prefix_ok;
  let snap = Telemetry.snapshot (Cluster.telemetry cluster) in
  checki "one recovery" 1 (Telemetry.snap_counter snap "fault.recoveries")

let scenario_cases system =
  List.map
    (fun name ->
      Alcotest.test_case
        (Printf.sprintf "%s under %s (3 seeds)" (E.system_name system) name)
        `Slow
        (test_system_scenario system name))
    [ "byzantine"; "partition"; "crash-recover" ]

let suite =
  [
    ( "faults.scenarios",
      [
        Alcotest.test_case "parse presets" `Quick test_parse_presets;
        Alcotest.test_case "parse errors" `Quick test_parse_errors;
        Alcotest.test_case "crash intervals" `Quick test_crash_intervals;
        Alcotest.test_case "partition reachability" `Quick test_partition_reachability;
        Alcotest.test_case "schedule materializes" `Quick test_schedule_materializes;
        Alcotest.test_case "wal retention" `Quick test_wal_retention;
        Alcotest.test_case "reputation miss streak" `Quick test_reputation_miss_streak;
        Alcotest.test_case "determinism per seed" `Slow test_determinism;
        Alcotest.test_case "recovery prefix audit" `Slow test_recovery_prefix_audit;
      ]
      @ scenario_cases E.Shoalpp
      @ scenario_cases E.Jolteon
      @ scenario_cases E.Mysticeti );
  ]
