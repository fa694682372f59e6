(* The latency ledger: the one place an ordered transaction's latency is
   recorded. Every system's commit path hands [record] one timestamp entry
   per transaction at its origin replica, and the ledger derives every
   latency view from it:
   - a bounded ring of raw entries, the admin endpoint's JSON tail;
   - the stage deltas keyed by (DAG lane x commit rule), so a fast-path
     commit's pipeline can be compared against an indirect one's — the
     attribution Shoal++'s latency claims are made of;
   - the aggregate [stage.*], [latency.e2e] and [dag<k>.latency|txns]
     instruments;
   - the warmup-cut latency summary and the dense per-second throughput
     and latency series a run report is made of.

   Determinism: recording only mutates this value and (when a registry is
   attached) telemetry instruments. It emits no trace events, schedules no
   timers and performs no I/O, so attaching a ledger to the simulated
   cluster leaves golden trace digests and event counts byte-identical. *)

module Telemetry = Shoalpp_support.Telemetry
module Stats = Shoalpp_support.Stats
module Tablefmt = Shoalpp_support.Tablefmt
module Anchors = Shoalpp_consensus.Anchors
module Driver = Shoalpp_consensus.Driver

type entry = {
  le_tx : int;
  le_origin : int;
  le_dag : int;
  le_rule : Anchors.rule;
  le_seq : int;
  le_submitted : float;
  le_batched : float;
  le_included : float;
  le_committed : float;
  le_ordered : float;
}

let e2e e = e.le_ordered -. e.le_submitted

(* Pipeline stages in order: (keyed stage name, aggregate histogram, delta
   in ms between two of the five timestamps). [e2e] spans the whole
   pipeline and is listed last. *)
let pipeline =
  [
    ("submit_to_batch", "stage.submit_to_batch", fun e -> e.le_batched -. e.le_submitted);
    ("batch_to_inclusion", "stage.batch_to_proposal", fun e -> e.le_included -. e.le_batched);
    ("inclusion_to_commit", "stage.proposal_to_commit", fun e -> e.le_committed -. e.le_included);
    ("commit_to_order", "stage.commit_to_order", fun e -> e.le_ordered -. e.le_committed);
    ("e2e", "latency.e2e", e2e);
  ]

let stage_names = List.map (fun (stage, _, _) -> stage) pipeline
let aggregate_names = List.map (fun (_, name, _) -> name) pipeline
let deltas = Array.of_list (List.map (fun (_, _, delta) -> delta) pipeline)

let rule_of_kind = function
  | Driver.Fast -> Anchors.Fast_direct
  | Driver.Direct -> Anchors.Certified_direct
  | Driver.Indirect -> Anchors.Indirect_rule

let rule_index = function
  | Anchors.Fast_direct -> 0
  | Anchors.Certified_direct -> 1
  | Anchors.Indirect_rule -> 2
  | Anchors.Skipped -> 3

let rule_of_tag tag =
  List.find_opt (fun r -> String.equal (Anchors.rule_tag r) tag) Anchors.all_rules

let metric_name ~dag ~rule stage =
  Printf.sprintf "ledger.dag%d.%s.%s" dag (Anchors.rule_tag rule) stage

(* One DAG lane's instruments: its [dag<k>.*] pair and, per commit rule,
   the keyed [ledger.dag<k>.<rule>.*] histograms (created on the lane's
   first commit under that rule). *)
type lane = {
  txns : Telemetry.counter;
  latency : Telemetry.Histogram.t;
  keyed : Telemetry.Histogram.t array option array;
}

type instruments = {
  tel : Telemetry.t;
  aggregate : Telemetry.Histogram.t array; (* one per pipeline stage *)
  lanes : (int, lane) Hashtbl.t;
}

type t = {
  ring : entry option array;
  mutable next : int;  (* ring slot the next entry lands in *)
  mutable total : int;  (* entries ever recorded *)
  instruments : instruments option;
  warmup_ms : float;
  summary : Stats.Summary.t;  (* e2e latency of post-warmup entries *)
  windows : Stats.Windowed.t;  (* post-warmup e2e sum and count per window *)
}

let capacity = 4096
let window_ms = 1000.0

let lane_of ins dag =
  match Hashtbl.find_opt ins.lanes dag with
  | Some lane -> lane
  | None ->
    let lane =
      {
        txns = Telemetry.counter ins.tel (Printf.sprintf "dag%d.txns" dag);
        latency = Telemetry.histogram ins.tel (Printf.sprintf "dag%d.latency" dag);
        keyed = Array.make 4 None;
      }
    in
    Hashtbl.replace ins.lanes dag lane;
    lane

let create ?telemetry ?(warmup_ms = 0.0) ?(num_dags = 1) () =
  let instruments =
    Option.map
      (fun tel ->
        let ins =
          {
            tel;
            aggregate =
              Array.of_list (List.map (Telemetry.histogram tel) aggregate_names);
            lanes = Hashtbl.create 4;
          }
        in
        (* Every lane is registered up front, so a lane that never commits
           still exports an explicit zero. *)
        for dag = 0 to max 1 num_dags - 1 do
          ignore (lane_of ins dag)
        done;
        ins)
      telemetry
  in
  {
    ring = Array.make capacity None;
    next = 0;
    total = 0;
    instruments;
    warmup_ms;
    summary = Stats.Summary.create ();
    windows = Stats.Windowed.create ~width:window_ms;
  }

let keyed_for ins lane ~dag ~rule =
  let i = rule_index rule in
  match lane.keyed.(i) with
  | Some hs -> hs
  | None ->
    let hs =
      Array.of_list
        (List.map (fun stage -> Telemetry.histogram ins.tel (metric_name ~dag ~rule stage)) stage_names)
    in
    lane.keyed.(i) <- Some hs;
    hs

(* One warmup rule for every latency view: an entry counts iff it was
   ordered at or after [warmup_ms], judged on order time, never on
   [le_submitted]. The summary and the windowed series bucket on the same
   time, so [committed_tps] and [throughput_series] agree exactly over the
   warmup window. A transaction submitted during warmup but ordered after
   it still measures the steady-state commit path, so it is included. *)
let record t e =
  t.ring.(t.next) <- Some e;
  t.next <- (t.next + 1) mod capacity;
  t.total <- t.total + 1;
  (match t.instruments with
  | None -> ()
  | Some ins ->
    let lane = lane_of ins e.le_dag in
    let keyed = keyed_for ins lane ~dag:e.le_dag ~rule:e.le_rule in
    (* One bucket per stage serves its aggregate, keyed and (for e2e,
       listed last) lane histograms. *)
    let last = Array.length deltas - 1 in
    Array.iteri
      (fun i delta ->
        let v = delta e in
        let bucket = Telemetry.Histogram.bucket_of v in
        Telemetry.Histogram.observe_in ins.aggregate.(i) ~bucket v;
        Telemetry.Histogram.observe_in keyed.(i) ~bucket v;
        if i = last then Telemetry.Histogram.observe_in lane.latency ~bucket v)
      deltas;
    Telemetry.incr lane.txns);
  if e.le_ordered >= t.warmup_ms then begin
    let lat = e2e e in
    Stats.Summary.add t.summary lat;
    Stats.Windowed.add t.windows ~time:e.le_ordered ~value:lat
  end

let recorded t = t.total
let dropped t = max 0 (t.total - capacity)

let latency t = t.summary
let committed t = Stats.Summary.count t.summary

let committed_tps t ~duration_ms =
  let effective = duration_ms -. t.warmup_ms in
  if effective <= 0.0 then 0.0 else float_of_int (committed t) /. (effective /. 1000.0)

let throughput_series t = Stats.Windowed.rate_series t.windows

(* Dense: a window with no commits (crash, partition) reports an explicit
   0.0 rather than being silently omitted — downstream tables and the
   paper's failure figures need the stall to be visible. *)
let latency_series t =
  List.map
    (fun (start, sum, cnt) -> (start, if cnt <= 0 then 0.0 else sum /. float_of_int cnt))
    (Stats.Windowed.series_filled t.windows)

(* Retained entries in commit order (oldest first); [limit] keeps the
   newest that many. *)
let tail ?limit t =
  let stored = min t.total capacity in
  let keep = match limit with Some l -> min (max 0 l) stored | None -> stored in
  let out = ref [] in
  for i = 0 to keep - 1 do
    let idx = (t.next - 1 - i + (2 * capacity)) mod capacity in
    match t.ring.(idx) with Some e -> out := e :: !out | None -> ()
  done;
  !out

(* ------------------------------------------------------------------ *)
(* JSON tail for the admin endpoint.                                   *)

let json_of_entry e =
  Export.Json.Obj
    [
      ("tx", Export.Json.Int e.le_tx);
      ("origin", Export.Json.Int e.le_origin);
      ("dag", Export.Json.Int e.le_dag);
      ("rule", Export.Json.Str (Anchors.rule_tag e.le_rule));
      ("seq", Export.Json.Int e.le_seq);
      ("submitted_ms", Export.Json.Float e.le_submitted);
      ("batched_ms", Export.Json.Float e.le_batched);
      ("included_ms", Export.Json.Float e.le_included);
      ("committed_ms", Export.Json.Float e.le_committed);
      ("ordered_ms", Export.Json.Float e.le_ordered);
    ]

let json_tail ?limit t =
  Export.Json.to_string
    (Export.Json.Obj
       [
         ("recorded", Export.Json.Int t.total);
         ("dropped", Export.Json.Int (dropped t));
         ("entries", Export.Json.List (List.map json_of_entry (tail ?limit t)));
       ])

(* ------------------------------------------------------------------ *)
(* Stage x rule x DAG breakdown from a telemetry snapshot.             *)

type row = {
  br_dag : int;
  br_rule : Anchors.rule;
  br_stage : string;
  br_stats : Telemetry.histogram_stats;
}

(* Parse "ledger.dag<k>.<rule_tag>.<stage>"; anything else is not ours. *)
let row_of_stats (hs : Telemetry.histogram_stats) =
  match String.split_on_char '.' hs.Telemetry.hs_name with
  | [ "ledger"; dagpart; ruletag; stage ]
    when String.length dagpart > 3 && String.equal (String.sub dagpart 0 3) "dag" ->
    let dag = int_of_string_opt (String.sub dagpart 3 (String.length dagpart - 3)) in
    let rule = rule_of_tag ruletag in
    (match (dag, rule, List.mem stage stage_names) with
    | Some dag, Some rule, true -> Some { br_dag = dag; br_rule = rule; br_stage = stage; br_stats = hs }
    | _ -> None)
  | _ -> None

let stage_order stage =
  let rec go i = function
    | [] -> List.length stage_names
    | s :: rest -> if String.equal s stage then i else go (i + 1) rest
  in
  go 0 stage_names

let breakdown snap =
  snap.Telemetry.snap_histograms
  |> List.filter_map row_of_stats
  |> List.sort (fun a b ->
         let c = Int.compare a.br_dag b.br_dag in
         if c <> 0 then c
         else
           let c = Int.compare (rule_index a.br_rule) (rule_index b.br_rule) in
           if c <> 0 then c else Int.compare (stage_order a.br_stage) (stage_order b.br_stage))

let breakdown_table snap =
  let rows =
    List.map
      (fun r ->
        let s = r.br_stats in
        [
          string_of_int r.br_dag;
          Anchors.rule_tag r.br_rule;
          r.br_stage;
          string_of_int s.Telemetry.hs_count;
          Tablefmt.float_cell ~decimals:1 s.Telemetry.hs_p50;
          Tablefmt.float_cell ~decimals:1 s.Telemetry.hs_p90;
          Tablefmt.float_cell ~decimals:1 s.Telemetry.hs_p99;
          Tablefmt.float_cell ~decimals:1 s.Telemetry.hs_mean;
        ])
      (breakdown snap)
  in
  Tablefmt.render
    ~header:[ "dag"; "rule"; "stage"; "n"; "p50(ms)"; "p90(ms)"; "p99(ms)"; "mean(ms)" ]
    rows
