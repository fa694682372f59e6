(* Observability layer: telemetry registry semantics, trace exporters
   (JSONL round-trip, Chrome trace_event structure), and end-to-end checks
   that deterministic cluster runs record the commit-rule counters and
   stage histograms the report surfaces. *)

module E = Shoalpp_baselines.Experiment
module Report = Shoalpp_runtime.Report
module Ledger = Shoalpp_runtime.Ledger
module Cluster = Shoalpp_runtime.Cluster
module Config = Shoalpp_core.Config
module Committee = Shoalpp_dag.Committee
module Topology = Shoalpp_sim.Topology
module Faults = Shoalpp_sim.Faults
module Jolteon = Shoalpp_baselines.Jolteon
module Mysticeti = Shoalpp_baselines.Mysticeti
module Export = Shoalpp_runtime.Export
module Telemetry = Shoalpp_support.Telemetry
module Anchors = Shoalpp_consensus.Anchors
module Trace = Shoalpp_sim.Trace

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Telemetry registry. *)

let test_counters_and_gauges () =
  let t = Telemetry.create () in
  let c = Telemetry.counter t "commit.fast_direct" in
  Telemetry.incr c;
  Telemetry.incr ~by:4 c;
  checki "counter value" 5 (Telemetry.counter_value c);
  (* Get-or-create: same name returns the same underlying counter. *)
  Telemetry.incr (Telemetry.counter t "commit.fast_direct");
  checki "shared by name" 6 (Telemetry.get_counter t "commit.fast_direct");
  checki "absent counter reads 0" 0 (Telemetry.get_counter t "no.such");
  Telemetry.set (Telemetry.gauge t "g") 2.5;
  Telemetry.set (Telemetry.gauge t "g") 7.0;
  let snap = Telemetry.snapshot t in
  checki "snap counter" 6 (Telemetry.snap_counter snap "commit.fast_direct");
  checkb "gauge overwrites" true (List.assoc "g" snap.Telemetry.snap_gauges = 7.0)

let test_histogram_quantiles () =
  let h = Telemetry.Histogram.create "lat" in
  for i = 1 to 1000 do
    Telemetry.Histogram.observe h (float_of_int i)
  done;
  checki "count" 1000 (Telemetry.Histogram.count h);
  let p50 = Telemetry.Histogram.quantile h 0.5 in
  (* Geometric buckets: ~7% relative error is the documented bound. *)
  checkb "p50 within bucket error" true (p50 > 400.0 && p50 < 600.0);
  let p99 = Telemetry.Histogram.quantile h 0.99 in
  checkb "p99 within bucket error" true (p99 > 900.0 && p99 <= 1100.0);
  checkb "min exact" true (Telemetry.Histogram.min h = 1.0);
  checkb "max exact" true (Telemetry.Histogram.max h = 1000.0);
  let empty = Telemetry.Histogram.create "e" in
  checkb "empty quantile is nan" true (Float.is_nan (Telemetry.Histogram.quantile empty 0.5))

let test_merge_accumulates () =
  let a = Telemetry.create () and b = Telemetry.create () in
  Telemetry.incr_named ~by:3 a "c";
  Telemetry.incr_named ~by:4 b "c";
  Telemetry.observe_named a "h" 10.0;
  Telemetry.observe_named b "h" 20.0;
  Telemetry.merge ~src:a ~dst:b;
  checki "counters add" 7 (Telemetry.get_counter b "c");
  match Telemetry.get_histogram b "h" with
  | None -> Alcotest.fail "merged histogram missing"
  | Some h ->
    checki "histogram observations add" 2 (Telemetry.Histogram.count h);
    checkb "sum adds" true (Telemetry.Histogram.sum h = 30.0)

(* ------------------------------------------------------------------ *)
(* Exporters. *)

let sample_events =
  let mk time replica instance kind = { Trace.time; replica; instance; kind } in
  [
    mk 0.0 0 0 (Trace.Proposal_created { round = 0; txns = 12 });
    mk 1.5 1 0 (Trace.Vote_cast { round = 0; author = 0 });
    mk 2.0 0 1 (Trace.Cert_formed { round = 0; author = 0 });
    mk 2.5 2 1 (Trace.Cert_received { round = 0; author = 0 });
    mk 3.0 3 0 (Trace.Fetch_requested { round = 2; author = 1 });
    mk 4.0 0 0 (Trace.Anchor_direct_fast { round = 1; anchor = 0 });
    mk 4.5 0 1 (Trace.Anchor_direct_certified { round = 1; anchor = 1 });
    mk 5.0 1 2 (Trace.Anchor_indirect { round = 3; anchor = 2 });
    mk 5.5 1 0 (Trace.Anchor_skipped { round = 5; anchor = 3 });
    mk 6.0 2 0 (Trace.Segment_committed { round = 1; anchor = 0; nodes = 4 });
    mk 6.5 2 0 (Trace.Segment_interleaved { global_seq = 9; round = 1; anchor = 0; txns = 37 });
    mk 7.0 3 2 (Trace.Timeout_fired { round = 4 });
    mk 8.0 0 0 (Trace.Gc_pruned { below = 2 });
    mk 9.0 1 1 (Trace.Custom { tag = "weird"; detail = "free-form" });
  ]

let test_jsonl_roundtrip () =
  let text = Export.jsonl_of_events sample_events in
  checki "one line per event" (List.length sample_events)
    (List.length (List.filter (fun l -> l <> "") (String.split_on_char '\n' text)));
  let back = Export.events_of_jsonl text in
  checki "all events survive" (List.length sample_events) (List.length back);
  List.iter2
    (fun (a : Trace.event) (b : Trace.event) ->
      checkb "ts" true (a.Trace.time = b.Trace.time);
      checki "replica" a.Trace.replica b.Trace.replica;
      checki "instance" a.Trace.instance b.Trace.instance;
      checkb "kind" true (a.Trace.kind = b.Trace.kind))
    sample_events back

let test_jsonl_skips_garbage () =
  let text = Export.jsonl_of_events sample_events in
  let noisy = "\n{not json}\n" ^ text ^ "\n   \n{\"ts\":1}\n" in
  (* Malformed and blank lines are skipped; an object missing the tag is
     dropped rather than misparsed. *)
  checki "only valid events parse" (List.length sample_events)
    (List.length (Export.events_of_jsonl noisy))

let test_chrome_trace_structure () =
  let text = Export.chrome_trace sample_events in
  match Export.Json.parse text with
  | None -> Alcotest.fail "chrome trace is not valid JSON"
  | Some json -> (
    match Export.Json.member "traceEvents" json with
    | Some (Export.Json.List entries) ->
      let instants =
        List.filter
          (fun e -> Export.Json.(member "ph" e |> Option.map to_string_opt) = Some (Some "i"))
          entries
      in
      checki "one instant event per trace event" (List.length sample_events)
        (List.length instants);
      List.iter
        (fun e ->
          let get k = Export.Json.member k e in
          checkb "has pid" true (Option.is_some (get "pid"));
          checkb "has tid" true (Option.is_some (get "tid"));
          checkb "has ts" true (Option.is_some (get "ts"));
          checkb "has name" true (Option.is_some (get "name")))
        instants;
      (* Metadata records name every replica process. *)
      let meta =
        List.filter
          (fun e -> Export.Json.(member "ph" e |> Option.map to_string_opt) = Some (Some "M"))
          entries
      in
      checkb "has process/thread metadata" true (List.length meta > 0)
    | _ -> Alcotest.fail "traceEvents missing or not a list")

let test_chrome_trace_microseconds () =
  let ev = { Trace.time = 2.5; replica = 1; instance = 0; kind = Trace.Timeout_fired { round = 1 } } in
  match Export.Json.parse (Export.chrome_trace [ ev ]) with
  | Some json -> (
    match Export.Json.member "traceEvents" json with
    | Some (Export.Json.List entries) ->
      let instant =
        List.find
          (fun e -> Export.Json.(member "ph" e |> Option.map to_string_opt) = Some (Some "i"))
          entries
      in
      (* trace_event ts is microseconds; 2.5 ms -> 2500 us. *)
      checkb "ms converted to us" true
        (Export.Json.(member "ts" instant |> Option.map to_float_opt) = Some (Some 2500.0))
    | _ -> Alcotest.fail "traceEvents missing")
  | None -> Alcotest.fail "invalid JSON"

let test_metrics_json_parses () =
  let t = Telemetry.create () in
  Telemetry.incr_named ~by:2 t "commit.fast_direct";
  Telemetry.observe_named t "latency.e2e" 120.0;
  Telemetry.observe_named t "latency.e2e" 240.0;
  let text = Export.metrics_json (Telemetry.snapshot t) in
  match Export.Json.parse text with
  | None -> Alcotest.fail "metrics snapshot is not valid JSON"
  | Some json ->
    let counter =
      Export.Json.(member "counters" json |> Option.map (member "commit.fast_direct"))
    in
    checkb "counter exported" true (counter = Some (Some (Export.Json.Int 2)));
    (match Export.Json.member "histograms" json with
    | Some (Export.Json.Obj hs) -> checkb "histogram exported" true (List.mem_assoc "latency.e2e" hs)
    | _ -> Alcotest.fail "histograms missing")

let test_json_string_escapes () =
  let ev =
    { Trace.time = 1.0; replica = 0; instance = 0;
      kind = Trace.Custom { tag = "q\"uote"; detail = "line\nbreak\tand \\ back" } }
  in
  let back = Export.events_of_jsonl (Export.jsonl_of_events [ ev ]) in
  match back with
  | [ e ] -> checkb "escaped strings round-trip" true (e.Trace.kind = ev.Trace.kind)
  | _ -> Alcotest.fail "event lost in round-trip"

(* ------------------------------------------------------------------ *)
(* End-to-end: deterministic cluster runs record what the report claims. *)

let failure_free_params =
  {
    E.default_params with
    E.n = 4;
    load_tps = 200.0;
    duration_ms = 4_000.0;
    warmup_ms = 500.0;
    topology = Topology.clique ~regions:4 ~one_way_ms:15.0;
    seed = 1;
    trace = true;
  }

let test_commit_rule_counters_match_report () =
  let o = E.run E.Shoalpp failure_free_params in
  let r = o.E.report in
  let snap = r.Report.telemetry in
  checkb "audit ok" true o.E.audit_ok;
  checki "fast_direct counter = report" r.Report.fast_commits
    (Telemetry.snap_counter snap (Anchors.counter_name Anchors.Fast_direct));
  checki "certified_direct counter = report" r.Report.direct_commits
    (Telemetry.snap_counter snap (Anchors.counter_name Anchors.Certified_direct));
  checki "indirect counter = report" r.Report.indirect_commits
    (Telemetry.snap_counter snap (Anchors.counter_name Anchors.Indirect_rule));
  checki "skipped counter = report" r.Report.skipped_anchors
    (Telemetry.snap_counter snap (Anchors.counter_name Anchors.Skipped))

let test_failure_free_mostly_fast_direct () =
  let o = E.run E.Shoalpp failure_free_params in
  let r = o.E.report in
  let mix = Report.rule_mix r in
  let frac rule = Option.value ~default:0.0 (List.assoc_opt rule mix) in
  checkb "fast-direct commits happen" true (r.Report.fast_commits > 0);
  checkb "fast-direct dominates failure-free" true (frac Anchors.Fast_direct > 0.5);
  (* Stage histograms cover every delivered origin transaction once. *)
  (match Telemetry.snap_histogram r.Report.telemetry "latency.e2e" with
  | None -> Alcotest.fail "latency.e2e histogram missing"
  | Some hs ->
    checkb "e2e observations recorded" true (hs.Telemetry.hs_count > 0);
    checkb "e2e p50 positive" true (hs.Telemetry.hs_p50 > 0.0));
  match Telemetry.snap_histogram r.Report.telemetry "stage.proposal_to_commit" with
  | None -> Alcotest.fail "stage.proposal_to_commit histogram missing"
  | Some hs -> checkb "commit stage observed" true (hs.Telemetry.hs_count > 0)

let test_crash_injection_yields_indirect () =
  let params =
    {
      E.default_params with
      E.n = 7;
      load_tps = 300.0;
      duration_ms = 8_000.0;
      warmup_ms = 500.0;
      topology = Topology.clique ~regions:7 ~one_way_ms:15.0;
      crashes = 2;
      seed = 3;
      trace = true;
    }
  in
  let o = E.run E.Shoalpp params in
  let r = o.E.report in
  checkb "audit ok under crashes" true o.E.audit_ok;
  checkb "indirect commits under crash injection" true (r.Report.indirect_commits > 0);
  checki "indirect counter matches" r.Report.indirect_commits
    (Telemetry.snap_counter r.Report.telemetry (Anchors.counter_name Anchors.Indirect_rule));
  (* The typed trace carries the same story. *)
  let count p = List.length (List.filter p o.E.events) in
  checkb "Anchor_indirect events traced" true
    (count (fun e -> match e.Trace.kind with Trace.Anchor_indirect _ -> true | _ -> false) > 0);
  checkb "Timeout_fired traced when rounds stall" true
    (count (fun e -> match e.Trace.kind with Trace.Timeout_fired _ -> true | _ -> false) > 0)

(* A silenced anchor forces the protocol off the fast path: its anchors
   are skipped or recovered via the certified-direct / indirect rules, so
   the commit-rule mix must show a non-zero non-fast share — the signal
   the failures bench's rule column and the trace analyzer's rule-mix
   windows are built to surface. *)
let test_byzantine_scenario_shifts_rule_mix () =
  let module Faults = Shoalpp_sim.Faults in
  let params =
    {
      E.default_params with
      E.load_tps = 300.0;
      duration_ms = 8_000.0;
      warmup_ms = 500.0;
      seed = 5;
      trace = true;
      scenario = Faults.byzantine ~kind:Faults.Silent_anchor ();
    }
  in
  let o = E.run E.Shoalpp params in
  let r = o.E.report in
  checkb "audit ok under silent anchor" true o.E.audit_ok;
  checkb "fault actually fired" true
    (Telemetry.snap_counter r.Report.telemetry "fault.withheld_proposals" > 0);
  let non_fast =
    r.Report.direct_commits + r.Report.indirect_commits + r.Report.skipped_anchors
  in
  checkb "non-fast commit rules exercised" true (non_fast > 0);
  checkb "fast path still commits for honest anchors" true (r.Report.fast_commits > 0);
  (* The trace carries the same mix: at least one non-fast decision event. *)
  let non_fast_events =
    List.length
      (List.filter
         (fun e ->
           match e.Trace.kind with
           | Trace.Anchor_direct_certified _ | Trace.Anchor_indirect _ | Trace.Anchor_skipped _
             -> true
           | _ -> false)
         o.E.events)
  in
  checkb "non-fast decisions traced" true (non_fast_events > 0)

let test_trace_events_exported_roundtrip () =
  let o = E.run E.Shoalpp failure_free_params in
  checkb "run produced events" true (o.E.events <> []);
  let back = Export.events_of_jsonl (Export.jsonl_of_events o.E.events) in
  checki "full run trace round-trips" (List.length o.E.events) (List.length back);
  List.iter2
    (fun (a : Trace.event) (b : Trace.event) -> checkb "event equal" true (a = b))
    o.E.events back;
  (* Commit events in the trace agree with the counters. *)
  let commits =
    List.length
      (List.filter
         (fun e ->
           match e.Trace.kind with
           | Trace.Anchor_direct_fast _ | Trace.Anchor_direct_certified _
           | Trace.Anchor_indirect _ -> true
           | _ -> false)
         o.E.events)
  in
  let r = o.E.report in
  checki "traced commits = reported commits"
    (r.Report.fast_commits + r.Report.direct_commits + r.Report.indirect_commits)
    commits

let test_deterministic_trace () =
  let a = E.run E.Shoalpp failure_free_params in
  let b = E.run E.Shoalpp failure_free_params in
  checkb "same seed, same trace" true (a.E.events = b.E.events);
  checks "same metrics snapshot"
    (Export.metrics_json a.E.report.Report.telemetry)
    (Export.metrics_json b.E.report.Report.telemetry)

let test_baseline_telemetry () =
  let o = E.run E.Jolteon failure_free_params in
  let snap = o.E.report.Report.telemetry in
  checkb "jolteon records 2-chain commits" true
    (Telemetry.snap_counter snap "commit.certified_direct" > 0);
  checkb "jolteon records e2e latency" true
    (match Telemetry.snap_histogram snap "latency.e2e" with
    | Some hs -> hs.Telemetry.hs_count > 0
    | None -> false);
  checkb "jolteon emits trace events" true (o.E.events <> []);
  let o = E.run E.Mysticeti failure_free_params in
  let snap = o.E.report.Report.telemetry in
  checkb "mysticeti records proposals" true (Telemetry.snap_counter snap "dag.proposals" > 0);
  checkb "mysticeti commits via direct rules" true
    (Telemetry.snap_counter snap "commit.fast_direct"
     + Telemetry.snap_counter snap "commit.certified_direct"
     > 0)

(* ------------------------------------------------------------------ *)
(* One latency sink: the aggregate stage histograms, the keyed ledger
   histograms, the per-lane instruments and the report are all views of
   the one ledger, so they agree with it exactly — for Shoal++ (with and
   without a restart, with and without checkpoints) and both baselines. *)

(* Each aggregate histogram and the keyed ledger stage it must match. *)
let aggregate_stages =
  [
    ("stage.submit_to_batch", "submit_to_batch");
    ("stage.batch_to_proposal", "batch_to_inclusion");
    ("stage.proposal_to_commit", "inclusion_to_commit");
    ("stage.commit_to_order", "commit_to_order");
    ("latency.e2e", "e2e");
  ]

(* [dag<k><suffix>] with a non-empty decimal [k]. *)
let is_lane_metric ~suffix name =
  let ls = String.length suffix and ln = String.length name in
  ln > 3 + ls
  && String.equal (String.sub name 0 3) "dag"
  && String.equal (String.sub name (ln - ls) ls) suffix
  && String.for_all (fun c -> c >= '0' && c <= '9') (String.sub name 3 (ln - ls - 3))

let check_one_sink name ledger (r : Report.t) =
  let snap = r.Report.telemetry in
  let recorded = Ledger.recorded ledger in
  let label what = Printf.sprintf "%s: %s" name what in
  checkb (label "transactions recorded") true (recorded > 0);
  let count metric =
    match Telemetry.snap_histogram snap metric with
    | Some hs -> hs.Telemetry.hs_count
    | None -> Alcotest.failf "%s: histogram %s missing" name metric
  in
  let rows = Ledger.breakdown snap in
  List.iter
    (fun (aggregate, stage) ->
      let keyed =
        List.fold_left
          (fun acc row ->
            if String.equal row.Ledger.br_stage stage then acc + row.Ledger.br_stats.Telemetry.hs_count
            else acc)
          0 rows
      in
      checki (label (aggregate ^ " = sum of keyed " ^ stage)) keyed (count aggregate);
      checki (label (aggregate ^ " = recorded")) recorded (count aggregate))
    aggregate_stages;
  let lane_txns =
    List.fold_left
      (fun acc (k, v) -> if is_lane_metric ~suffix:".txns" k then acc + v else acc)
      0 snap.Telemetry.snap_counters
  in
  let lane_latency =
    List.fold_left
      (fun acc (hs : Telemetry.histogram_stats) ->
        if is_lane_metric ~suffix:".latency" hs.Telemetry.hs_name then acc + hs.Telemetry.hs_count
        else acc)
      0 snap.Telemetry.snap_histograms
  in
  checki (label "sum of dag<k>.txns = recorded") recorded lane_txns;
  checki (label "sum of dag<k>.latency counts = recorded") recorded lane_latency;
  checki (label "report committed = warmup-cut summary") r.Report.committed
    (Shoalpp_support.Stats.Summary.count (Ledger.latency ledger))

let test_one_latency_sink () =
  let committee = Committee.make ~n:4 ~cluster_seed:9 () in
  let topology = Topology.clique ~regions:2 ~one_way_ms:20.0 in
  let duration_ms = 6_000.0 in
  let shoalpp name ?(scenario = Faults.none) interval =
    let protocol =
      Config.with_checkpoint_interval
        (Config.without_signature_checks (Config.shoalpp ~committee))
        interval
    in
    let c =
      Cluster.create
        {
          (Cluster.default_setup ~protocol) with
          Cluster.topology;
          scenario;
          load_tps = 300.0;
          warmup_ms = 500.0;
          seed = 3;
        }
    in
    Cluster.run c ~duration_ms;
    let r = Cluster.report c ~duration_ms in
    checki (name ^ ": restarts") (List.length (Faults.crash_recoveries scenario ~n:4))
      (Telemetry.snap_counter r.Report.telemetry "fault.recoveries");
    check_one_sink name (Cluster.ledger c) r
  in
  let crash_recover = Faults.crash_recover ~count:1 ~at:2_000.0 ~recover_at:3_500.0 () in
  shoalpp "shoal++ clean" 0;
  shoalpp "shoal++ crash_recover" ~scenario:crash_recover 0;
  shoalpp "shoal++ crash_recover, checkpoints" ~scenario:crash_recover 12;
  let run_setup protocol ~seed =
    {
      (Cluster.default_setup ~protocol) with
      Cluster.topology;
      load_tps = 300.0;
      warmup_ms = 500.0;
      seed;
    }
  in
  let j = Jolteon.create (run_setup (Jolteon.default_setup ~committee) ~seed:11) in
  Cluster.run j ~duration_ms;
  check_one_sink "jolteon" (Cluster.ledger j) (Cluster.report j ~duration_ms);
  let m =
    Mysticeti.create
      (run_setup
         { (Mysticeti.default_setup ~committee) with Mysticeti.verify_signatures = false }
         ~seed:13)
  in
  Cluster.run m ~duration_ms;
  check_one_sink "mysticeti" (Cluster.ledger m) (Cluster.report m ~duration_ms)

let suite =
  [
    ( "observability",
      [
        Alcotest.test_case "counters and gauges" `Quick test_counters_and_gauges;
        Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
        Alcotest.test_case "merge accumulates" `Quick test_merge_accumulates;
        Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
        Alcotest.test_case "jsonl skips garbage" `Quick test_jsonl_skips_garbage;
        Alcotest.test_case "chrome trace structure" `Quick test_chrome_trace_structure;
        Alcotest.test_case "chrome trace microseconds" `Quick test_chrome_trace_microseconds;
        Alcotest.test_case "metrics json parses" `Quick test_metrics_json_parses;
        Alcotest.test_case "json string escapes" `Quick test_json_string_escapes;
        Alcotest.test_case "commit-rule counters match report" `Quick
          test_commit_rule_counters_match_report;
        Alcotest.test_case "failure-free is mostly fast-direct" `Quick
          test_failure_free_mostly_fast_direct;
        Alcotest.test_case "crash injection yields indirect commits" `Quick
          test_crash_injection_yields_indirect;
        Alcotest.test_case "byzantine scenario shifts rule mix" `Quick
          test_byzantine_scenario_shifts_rule_mix;
        Alcotest.test_case "run trace exports and round-trips" `Quick
          test_trace_events_exported_roundtrip;
        Alcotest.test_case "trace and metrics deterministic" `Quick test_deterministic_trace;
        Alcotest.test_case "baseline telemetry hooks" `Quick test_baseline_telemetry;
        Alcotest.test_case "one latency sink agrees with itself" `Quick test_one_latency_sink;
      ] );
  ]
