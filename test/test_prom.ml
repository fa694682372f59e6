(* Observability plane unit tests: the Prometheus text exposition
   (format 0.0.4 — name sanitization, label escaping, cumulative buckets,
   golden body) and the per-commit latency ledger (ring semantics, stage
   aggregation, JSON tail, breakdown ordering). *)

module Prom = Shoalpp_runtime.Prom
module Ledger = Shoalpp_runtime.Ledger
module Export = Shoalpp_runtime.Export
module Telemetry = Shoalpp_support.Telemetry
module Anchors = Shoalpp_consensus.Anchors
module Driver = Shoalpp_consensus.Driver

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition. *)

let test_metric_name_sanitization () =
  checks "dots become underscores" "stage_e2e" (Prom.metric_name "stage.e2e");
  checks "dashes and spaces" "a_b_c" (Prom.metric_name "a-b c");
  checks "legal names pass through" "dag0_txns:rate" (Prom.metric_name "dag0_txns:rate");
  checks "leading digit gains prefix" "_7up" (Prom.metric_name "7up");
  checks "empty input yields a legal name" "_" (Prom.metric_name "");
  (* Whatever goes in, the output matches the grammar. *)
  let legal s =
    String.length s > 0
    && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
    && String.for_all
         (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
         s
  in
  List.iter
    (fun raw -> checkb ("sanitized " ^ raw) true (legal (Prom.metric_name raw)))
    [ "ledger.dag0.fast_direct.e2e"; "99 balloons"; "\xc3\xa9clair"; "{weird}"; "" ]

let test_label_value_escaping () =
  checks "backslash" {|a\\b|} (Prom.label_value {|a\b|});
  checks "double quote" {|say \"hi\"|} (Prom.label_value {|say "hi"|});
  checks "newline" {|line\nbreak|} (Prom.label_value "line\nbreak");
  checks "plain text untouched" "plain" (Prom.label_value "plain");
  checks "sample line with labels" "up{job=\"a\\\"b\"} 1\n"
    (Prom.sample ~labels:[ ("job", {|a"b|}) ] "up" 1.0)

let test_histogram_buckets_cumulative () =
  let t = Telemetry.create () in
  let h = Telemetry.histogram t "lat" in
  List.iter (Telemetry.Histogram.observe h) [ 0.5; 1.0; 1.5; 2.0; 250.0 ];
  let buckets = Telemetry.Histogram.cumulative_buckets h in
  checkb "has buckets" true (buckets <> []);
  (* Bounds strictly increase and counts never decrease. *)
  let rec check_mono = function
    | (b1, c1) :: ((b2, c2) :: _ as rest) ->
      checkb "bounds strictly increase" true (b1 < b2);
      checkb "counts monotone" true (c1 <= c2);
      check_mono rest
    | _ -> ()
  in
  check_mono buckets;
  checki "final cumulative count = observations" 5 (snd (List.hd (List.rev buckets)));
  (* The rendered body closes the series with le="+Inf" equal to _count. *)
  let body = Prom.render (Telemetry.snapshot t) in
  checkb "+Inf bucket present" true
    (let needle = "shoalpp_lat_bucket{le=\"+Inf\"} 5\n" in
     let n = String.length body and m = String.length needle in
     let rec scan i = i + m <= n && (String.sub body i m = needle || scan (i + 1)) in
     scan 0)

let contains body needle =
  let n = String.length body and m = String.length needle in
  let rec scan i = i + m <= n && (String.sub body i m = needle || scan (i + 1)) in
  scan 0

let test_render_golden_body () =
  let t = Telemetry.create () in
  Telemetry.incr ~by:3 (Telemetry.counter t "commit.fast_direct");
  Telemetry.incr (Telemetry.counter t "dag.votes");
  Telemetry.set (Telemetry.gauge t "live.uptime_ms") 1234.5;
  let body = Prom.render (Telemetry.snapshot t) in
  checks "golden body"
    ("# TYPE shoalpp_commit_fast_direct counter\n" ^ "shoalpp_commit_fast_direct 3\n"
   ^ "# TYPE shoalpp_dag_votes counter\n" ^ "shoalpp_dag_votes 1\n"
   ^ "# TYPE shoalpp_live_uptime_ms gauge\n" ^ "shoalpp_live_uptime_ms 1234.5\n")
    body;
  (* Equal snapshots render byte-identical bodies. *)
  checks "deterministic render" body (Prom.render (Telemetry.snapshot t));
  (* Namespace is configurable and can be dropped. *)
  let bare = Prom.render ~namespace:"" (Telemetry.snapshot t) in
  checkb "no namespace prefix" true (contains bare "\ncommit_fast_direct 3\n")

let test_render_special_values () =
  let t = Telemetry.create () in
  Telemetry.set (Telemetry.gauge t "weird.nan") Float.nan;
  Telemetry.set (Telemetry.gauge t "weird.inf") Float.infinity;
  Telemetry.set (Telemetry.gauge t "weird.neg") Float.neg_infinity;
  let body = Prom.render (Telemetry.snapshot t) in
  checkb "NaN rendered" true (contains body "shoalpp_weird_nan NaN\n");
  checkb "+Inf rendered" true (contains body "shoalpp_weird_inf +Inf\n");
  checkb "-Inf rendered" true (contains body "shoalpp_weird_neg -Inf\n")

(* ------------------------------------------------------------------ *)
(* Latency ledger. *)

let entry ?(tx = 0) ?(dag = 0) ?(rule = Anchors.Fast_direct) ?(seq = 0) ?(t0 = 0.0) () =
  {
    Ledger.le_tx = tx;
    le_origin = 1;
    le_dag = dag;
    le_rule = rule;
    le_seq = seq;
    le_submitted = t0;
    le_batched = t0 +. 1.0;
    le_included = t0 +. 2.0;
    le_committed = t0 +. 5.0;
    le_ordered = t0 +. 8.0;
  }

let test_ledger_ring () =
  let l = Ledger.create () in
  checki "empty" 0 (Ledger.recorded l);
  let total = Ledger.capacity + 2 in
  for i = 0 to total - 1 do
    Ledger.record l (entry ~tx:i ~seq:i ())
  done;
  checki "recorded counts all" total (Ledger.recorded l);
  checki "dropped = recorded - retained" 2 (Ledger.dropped l);
  (* Tail is oldest-first over the newest [capacity] entries. *)
  checkb "tail keeps newest, oldest first" true
    (List.map (fun e -> e.Ledger.le_tx) (Ledger.tail l) = List.init Ledger.capacity (fun i -> i + 2));
  checkb "limited tail keeps the newest" true
    (List.map (fun e -> e.Ledger.le_tx) (Ledger.tail ~limit:2 l) = [ total - 2; total - 1 ])

let test_ledger_json_tail () =
  let l = Ledger.create () in
  Ledger.record l (entry ~tx:7 ~seq:42 ~rule:Anchors.Indirect_rule ());
  let j =
    match Export.Json.parse (Ledger.json_tail l) with
    | Some j -> j
    | None -> Alcotest.fail "ledger JSON does not parse"
  in
  let int_member k j = Option.bind (Export.Json.member k j) Export.Json.to_int_opt in
  checkb "recorded field" true (int_member "recorded" j = Some 1);
  checkb "dropped field" true (int_member "dropped" j = Some 0);
  match Export.Json.member "entries" j with
  | Some (Export.Json.List [ e ]) ->
    checkb "tx" true (int_member "tx" e = Some 7);
    checkb "seq" true (int_member "seq" e = Some 42);
    checkb "rule tag" true
      (Option.bind (Export.Json.member "rule" e) Export.Json.to_string_opt
      = Some (Anchors.rule_tag Anchors.Indirect_rule))
  | _ -> Alcotest.fail "entries should hold exactly the one recorded entry"

let test_ledger_breakdown () =
  let t = Telemetry.create () in
  let l = Ledger.create ~telemetry:t () in
  (* Two DAGs, two rules — rows must come back sorted (dag, rule, stage). *)
  Ledger.record l (entry ~dag:1 ~rule:Anchors.Certified_direct ());
  Ledger.record l (entry ~dag:0 ~rule:Anchors.Fast_direct ());
  Ledger.record l (entry ~dag:0 ~rule:Anchors.Fast_direct ~t0:10.0 ());
  let rows = Ledger.breakdown (Telemetry.snapshot t) in
  let n_stages = List.length Ledger.stage_names in
  checki "rows = groups x stages" (2 * n_stages) (List.length rows);
  (* deterministic: dag 0 rows first, stages in pipeline order *)
  (match rows with
  | first :: _ ->
    checki "first row is dag 0" 0 first.Ledger.br_dag;
    checks "first stage is submit_to_batch" "submit_to_batch" first.Ledger.br_stage;
    checki "dag0 counted both entries" 2 first.Ledger.br_stats.Telemetry.hs_count
  | [] -> Alcotest.fail "breakdown empty");
  (* e2e stage of the fast rows: 8ms for both entries. *)
  let e2e =
    List.find
      (fun r ->
        r.Ledger.br_dag = 0 && r.Ledger.br_rule = Anchors.Fast_direct
        && String.equal r.Ledger.br_stage "e2e")
      rows
  in
  checkb "e2e latency aggregated" true (e2e.Ledger.br_stats.Telemetry.hs_p50 > 7.0);
  (* The table renders one line per row plus header and rule. *)
  let table = Ledger.breakdown_table (Telemetry.snapshot t) in
  checki "table lines" (2 + (2 * n_stages))
    (List.length (String.split_on_char '\n' (String.trim table)))

let test_ledger_rule_mapping () =
  checkb "fast" true (Ledger.rule_of_kind Driver.Fast = Anchors.Fast_direct);
  checkb "direct" true (Ledger.rule_of_kind Driver.Direct = Anchors.Certified_direct);
  checkb "indirect" true (Ledger.rule_of_kind Driver.Indirect = Anchors.Indirect_rule);
  checks "metric name" "ledger.dag2.indirect.inclusion_to_commit"
    (Ledger.metric_name ~dag:2 ~rule:Anchors.Indirect_rule "inclusion_to_commit")

let suite =
  [
    ( "prom",
      [
        Alcotest.test_case "metric name sanitization" `Quick test_metric_name_sanitization;
        Alcotest.test_case "label value escaping" `Quick test_label_value_escaping;
        Alcotest.test_case "histogram buckets cumulative" `Quick
          test_histogram_buckets_cumulative;
        Alcotest.test_case "golden exposition body" `Quick test_render_golden_body;
        Alcotest.test_case "special float values" `Quick test_render_special_values;
      ] );
    ( "ledger",
      [
        Alcotest.test_case "ring retention and drops" `Quick test_ledger_ring;
        Alcotest.test_case "json tail shape" `Quick test_ledger_json_tail;
        Alcotest.test_case "breakdown rows sorted and aggregated" `Quick test_ledger_breakdown;
        Alcotest.test_case "rule mapping and metric names" `Quick test_ledger_rule_mapping;
      ] );
  ]
