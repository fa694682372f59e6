(* The pinned golden runs shared by the backend-conformance suite
   (test_backend.ml) and the hot-path suite (test_perf_fixes.ml): one
   small experiment per system, digested as its full trace (commit
   sequence included) plus a summary of the rule mix and the audit. *)

module E = Shoalpp_baselines.Experiment
module Report = Shoalpp_runtime.Report
module Export = Shoalpp_runtime.Export

let run_digest system ~seed =
  let params =
    {
      E.default_params with
      E.n = 4;
      load_tps = 500.0;
      duration_ms = 3_000.0;
      warmup_ms = 500.0;
      seed;
      verify_signatures = false;
      trace = true;
      trace_capacity = 262_144;
    }
  in
  let o = E.run system params in
  let r = o.E.report in
  let summary =
    Printf.sprintf "committed=%d fast=%d direct=%d indirect=%d skipped=%d audit=%b"
      r.Report.committed r.Report.fast_commits r.Report.direct_commits r.Report.indirect_commits
      r.Report.skipped_anchors o.E.audit_ok
  in
  Shoalpp_crypto.Sha256.to_hex
    (Shoalpp_crypto.Sha256.digest_string (Export.jsonl_of_events o.E.events ^ "\n" ^ summary))

(* Digests of [run_digest ~seed:11], captured before the backend seam and
   the hot-path optimizations; neither may move them. The shoal++ digest
   was re-taken when the Alg. 3 merge went from one segment per lane per
   cycle to one lane's output per anchor round, which reorders its commit
   stream, again when a round-phase gate replaced the lanes' fixed start
   stagger, which retimes its lanes' proposals, and again when the gate's
   round period became the largest of the lanes' periods instead of lane
   0's alone. *)
let seed11 =
  [
    ("shoal++", E.Shoalpp, "7eb4cd71037a3deb7821967d6b49da91547b8d7fb3c191da5e5860075b975420");
    ("jolteon", E.Jolteon, "2a5c05b857fd76d4c69cb435246f01d94b1cd9068b56808e11bc7991646f01f6");
    ("mysticeti", E.Mysticeti, "c2dc2dda8eeb7a9e265243ef23ca96245e446352a399bb63c347d4308e450efe");
  ]
