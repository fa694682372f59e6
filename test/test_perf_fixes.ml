(* Regression tests for the hot-path performance pass: the metrics warmup
   rule, the engine's run-to-horizon semantics, SKIP_TO schedule elision,
   and a golden determinism check pinning the optimized hot paths (packed
   keys, memoized causal histories, lazy validation, batched fan-out) to
   byte-identical behaviour — same commit sequence, same rule mix, same
   audit — for a fixed seed. *)

module Engine = Shoalpp_sim.Engine
module Ledger = Shoalpp_runtime.Ledger
module Stats = Shoalpp_support.Stats
module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store
module Committee = Shoalpp_dag.Committee
module Driver = Shoalpp_consensus.Driver
module Anchors = Shoalpp_consensus.Anchors

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf = Alcotest.(check (float 1e-9))
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Ledger: one warmup rule, judged on commit (order) time, for both the
   scalar counters and the windowed series. *)

(* Transaction [id], submitted at [at] and ordered at [now]. *)
let commit ~id ~at ~now =
  {
    Ledger.le_tx = id;
    le_origin = 0;
    le_dag = 0;
    le_rule = Anchors.Fast_direct;
    le_seq = id;
    le_submitted = at;
    le_batched = at;
    le_included = at;
    le_committed = now;
    le_ordered = now;
  }

let series_total series =
  (* rate_series reports tx/s over 1 s windows: summing gives commits. *)
  List.fold_left (fun acc (_, v) -> acc +. v) 0.0 series

let test_warmup_judged_on_commit_time () =
  let m = Ledger.create ~warmup_ms:1000.0 () in
  (* Submitted during warmup, committed after: measures the steady-state
     commit path, so every view must include it. *)
  Ledger.record m (commit ~id:1 ~at:500.0 ~now:1500.0);
  (* Committed during warmup: no view may include it. *)
  Ledger.record m (commit ~id:2 ~at:100.0 ~now:900.0);
  checki "committed counter" 1 (Ledger.committed m);
  checki "latency samples" 1 (Stats.Summary.count (Ledger.latency m));
  checkf "latency of the counted tx" 1000.0 (Stats.Summary.mean (Ledger.latency m));
  checkf "series total agrees with counter" 1.0 (series_total (Ledger.throughput_series m))

let test_warmup_counters_and_series_agree () =
  (* Commits straddling the cutoff in both submit/commit combinations: the
     scalar counter and the series must agree exactly (the old code judged
     the counter on submit time and the series on commit time). *)
  let m = Ledger.create ~warmup_ms:2000.0 () in
  List.iter
    (fun (id, submitted, committed) -> Ledger.record m (commit ~id ~at:submitted ~now:committed))
    [
      (1, 500.0, 1500.0) (* in-warmup commit: excluded *);
      (2, 1500.0, 2500.0) (* warmup submit, steady commit: included *);
      (3, 2500.0, 3500.0) (* steady both: included *);
      (4, 100.0, 1999.0) (* in-warmup commit: excluded *);
    ];
  checki "committed" 2 (Ledger.committed m);
  checkf "series total" 2.0 (series_total (Ledger.throughput_series m));
  checki "latency count matches" 2 (Stats.Summary.count (Ledger.latency m))

(* ------------------------------------------------------------------ *)
(* Engine: run-to-horizon is gated on the queue being drained of due
   events, never on leftover budget; cancelled timers cannot leak events
   past the horizon. *)

let test_run_status_horizon_vs_budget () =
  let e = Engine.create () in
  for _ = 1 to 3 do
    ignore (Engine.schedule e ~after:10.0 (fun () -> ()))
  done;
  (* Budget expires with a due event still pending. *)
  Alcotest.check
    (Alcotest.testable
       (fun fmt r ->
         Format.pp_print_string fmt
           (match r with
           | Engine.Horizon_reached -> "horizon"
           | Engine.Queue_drained -> "drained"
           | Engine.Budget_exhausted -> "budget"))
       ( = ))
    "budget exhausted" Engine.Budget_exhausted
    (Engine.run_status ~until:50.0 ~max_events:2 e);
  checkf "clock stays at last event" 10.0 (Engine.now e);
  (* Budget expires exactly as the queue drains: that is still the horizon. *)
  checkb "horizon (exact budget)" true
    (Engine.run_status ~until:50.0 ~max_events:1 e = Engine.Horizon_reached);
  checkf "clock advanced to horizon" 50.0 (Engine.now e)

let test_run_status_queue_drained () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:5.0 (fun () -> ()));
  checkb "drained without horizon" true (Engine.run_status e = Engine.Queue_drained);
  checkb "empty queue, zero budget, horizon still reached" true
    (Engine.run_status ~until:9.0 ~max_events:0 e = Engine.Horizon_reached);
  checkf "clock at horizon" 9.0 (Engine.now e)

let test_cancelled_timer_does_not_leak_past_horizon () =
  let e = Engine.create () in
  let fired_late = ref false in
  let t1 = Engine.schedule e ~after:10.0 (fun () -> ()) in
  ignore (Engine.schedule e ~after:100.0 (fun () -> fired_late := true));
  Engine.cancel t1;
  (* The cancelled timer sits below the horizon; stepping over it must not
     fire the event beyond the horizon. *)
  checkb "horizon reached" true (Engine.run_status ~until:50.0 e = Engine.Horizon_reached);
  checkb "event past horizon did not fire" false !fired_late;
  checkf "clock at horizon" 50.0 (Engine.now e);
  Engine.run e;
  checkb "fires after the horizon is lifted" true !fired_late

(* ------------------------------------------------------------------ *)
(* SKIP_TO: the resumed vector is the strict schedule suffix after the
   committed anchor; everything elided is counted as skipped. *)

let committee = Committee.make ~n:4 ()

let make_node ~round ~author ~parents () =
  let batch =
    Shoalpp_workload.Batch.make
      ~txns:[ Shoalpp_workload.Transaction.make ~id:((round * 100) + author) ~submitted_at:0.0 ~origin:author () ]
      ~created_at:0.0
  in
  let digest =
    Types.node_digest ~round ~author ~batch_digest:batch.Shoalpp_workload.Batch.digest ~parents
      ~weak_parents:[]
  in
  let kp = Committee.keypair committee author in
  {
    Types.round;
    author;
    batch;
    parents;
    weak_parents = [];
    digest;
    signature = Shoalpp_crypto.Signer.sign kp (Shoalpp_crypto.Digest32.raw digest);
    created_at = 0.0;
  }

let certify node =
  let preimage =
    Types.vote_preimage ~round:node.Types.round ~author:node.Types.author ~digest:node.Types.digest
  in
  let sigs =
    List.map
      (fun i -> (i, Shoalpp_crypto.Signer.sign (Committee.keypair committee i) preimage))
      [ 0; 1; 2 ]
  in
  { Types.cn_node = node; cn_cert = { Types.cert_ref = Types.ref_of_node node; multisig = Shoalpp_crypto.Multisig.aggregate ~n:4 sigs } }

type ctx = { store : Store.t; driver : Driver.t; mutable segments : Driver.segment list }

let make_driver () =
  let store = Store.create ~n:4 ~genesis_digest:committee.Committee.genesis in
  let ctx = ref None in
  let cfg =
    { (Driver.default_config ~committee) with Driver.fast_commit = false; reputation_enabled = false }
  in
  let driver =
    Driver.create cfg
      {
        Driver.now = (fun () -> 0.0);
        cert_ref =
          (fun ~round ~author ->
            Option.map (fun cn -> Types.ref_of_node cn.Types.cn_node) (Store.get store ~round ~author));
        request_fetch = (fun _ -> ());
        on_segment = (fun s -> match !ctx with Some c -> c.segments <- s :: c.segments | None -> ());
        request_gc = (fun ~round:_ -> ());
        direct_guard = None;
      }
      ~store
  in
  let c = { store; driver; segments = [] } in
  ctx := Some c;
  c

let add_round ctx ~round ~parents ?(authors = [ 0; 1; 2; 3 ]) () =
  let cns = List.map (fun author -> certify (make_node ~round ~author ~parents ())) authors in
  List.iter
    (fun cn ->
      ignore (Store.note_proposal ctx.store cn.Types.cn_node);
      ignore (Store.add_certified ctx.store cn);
      Driver.notify ctx.driver)
    cns;
  List.map (fun cn -> Types.ref_of_node cn.Types.cn_node) cns

let test_skip_to_elides_schedule_prefix () =
  (* Round-1 head candidate (author 1 under rotation) is referenced by
     nobody: resolution jumps via SKIP_TO to the instance anchor (3, 3).
     The §5.2 elision must (a) count the whole abandoned round-1 vector as
     skipped, (b) resume with exactly the schedule suffix after the
     committed anchor — candidates 0, 1, 2 of round 3, in that order. *)
  let ctx = make_driver () in
  let r0 = add_round ctx ~round:0 ~parents:[] () in
  let r1 = add_round ctx ~round:1 ~parents:r0 () in
  let r1_partial = List.filter (fun (r : Types.node_ref) -> r.Types.ref_author <> 1) r1 in
  let r2 = add_round ctx ~round:2 ~parents:r1_partial () in
  let r3 = add_round ctx ~round:3 ~parents:r2 () in
  ignore (add_round ctx ~round:4 ~parents:r3 ());
  let anchors =
    List.rev_map
      (fun (s : Driver.segment) ->
        (s.Driver.anchor.Types.ref_round, s.Driver.anchor.Types.ref_author, s.Driver.kind))
      ctx.segments
  in
  Alcotest.(check (list (triple int int bool)))
    "SKIP_TO target, then the round-3 suffix in schedule order"
    [ (3, 3, true); (3, 0, false); (3, 1, false); (3, 2, false) ]
    (List.map (fun (r, a, k) -> (r, a, k = Driver.Indirect)) anchors);
  let stats = Driver.stats ctx.driver in
  (* The whole round-1 vector [1; 2; 3; 0] was elided; the committed anchor
     heads round 3's vector, so no round-3 candidate precedes it. *)
  checki "skipped = elided candidates" 4 stats.Driver.skipped_anchors;
  checki "indirect commit recorded once" 1 stats.Driver.indirect_commits

(* ------------------------------------------------------------------ *)
(* Golden determinism: for a fixed seed, a full cluster run must produce a
   byte-identical trace (commit sequence included), rule mix and audit,
   pinned at {!Golden.seed11}; the hot-path optimizations must not move
   them. *)

let test_golden_cluster_digests () =
  List.iter
    (fun (name, system, expected) ->
      let d = Golden.run_digest system ~seed:11 in
      (* Re-running in the same process must also reproduce it (no hidden
         global state in the optimized paths). *)
      checks (name ^ " stable across runs") d (Golden.run_digest system ~seed:11);
      checks (name ^ " golden digest") expected d)
    Golden.seed11

let suite =
  [
    ( "perf-fixes.metrics",
      [
        Alcotest.test_case "warmup judged on commit time" `Quick test_warmup_judged_on_commit_time;
        Alcotest.test_case "counters and series agree" `Quick test_warmup_counters_and_series_agree;
      ] );
    ( "perf-fixes.engine",
      [
        Alcotest.test_case "horizon vs budget" `Quick test_run_status_horizon_vs_budget;
        Alcotest.test_case "queue drained / zero budget" `Quick test_run_status_queue_drained;
        Alcotest.test_case "cancelled timer below horizon" `Quick
          test_cancelled_timer_does_not_leak_past_horizon;
      ] );
    ( "perf-fixes.skip-to",
      [ Alcotest.test_case "elides schedule prefix" `Quick test_skip_to_elides_schedule_prefix ] );
    ( "perf-fixes.golden",
      [ Alcotest.test_case "cluster digests" `Slow test_golden_cluster_digests ] );
  ]
