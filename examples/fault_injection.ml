(* Fault injection: what the paper's robustness section (§8.3) is about.

   Phase 1 — crash faults: run Shoal++ and crash f replicas mid-run; watch
   reputation rotate the dead replicas out of the anchor schedule and
   latency recover. Phase 2 — message drops: compare certified Shoal++
   against the uncertified Mysticeti baseline under 1% egress drops; the
   uncertified DAG must fetch missing blocks on the critical path and its
   latency spikes, while Shoal++ barely moves (Fig 8).

     dune exec examples/fault_injection.exe *)

module E = Shoalpp_baselines.Experiment
module Cluster = Shoalpp_runtime.Cluster
module Report = Shoalpp_runtime.Report
module Config = Shoalpp_core.Config
module Committee = Shoalpp_dag.Committee
module Topology = Shoalpp_sim.Topology

let () =
  (* ---------------- Phase 1: crash f replicas mid-run ---------------- *)
  Format.printf "=== crash faults: Shoal++ with f=5 of 16 replicas crashed at t=10s ===@.";
  let committee = Committee.make ~n:16 () in
  let protocol =
    Config.without_signature_checks (Config.shoalpp ~committee)
  in
  (* Crashes take the top ids: replicas 11-15. *)
  let setup =
    {
      (Cluster.default_setup ~protocol) with
      Cluster.load_tps = 1_000.0;
      scenario = Shoalpp_sim.Faults.crash ~count:5 ~at:10_000.0 ();
    }
  in
  let cluster = Cluster.create setup in
  Cluster.run cluster ~duration_ms:10_000.0;
  Format.printf "crashed replicas 11-15 at t=10s...@.";
  Cluster.run cluster ~duration_ms:30_000.0;
  let report = Cluster.report cluster ~duration_ms:30_000.0 in
  Format.printf "%a@." Cluster.pp_report report;
  let audit = Cluster.audit cluster in
  Format.printf "safety: consistent=%b duplicates=%d@." audit.Cluster.consistent_prefixes
    audit.Cluster.duplicate_orders;
  (* Reputation evidence: crashed replicas no longer appear in the anchor
     vectors of surviving replicas. *)
  let r0 = (Cluster.replicas cluster).(0) in
  List.iteri
    (fun dag stats ->
      Format.printf "dag %d: %d segments, %d skipped anchors@." dag
        stats.Shoalpp_consensus.Driver.segments stats.Shoalpp_consensus.Driver.skipped_anchors)
    (Shoalpp_core.Replica.driver_stats r0);

  (* ---------------- Phase 2: message drops, certified vs not ---------- *)
  Format.printf "@.=== message drops: Shoal++ (certified) vs Mysticeti (uncertified) ===@.";
  let params =
    {
      E.default_params with
      E.n = 16;
      load_tps = 1_000.0;
      duration_ms = 40_000.0;
      warmup_ms = 3_000.0;
      scenario = Shoalpp_sim.Faults.drop ~from_time:15_000.0 ();
      verify_signatures = false;
    }
  in
  List.iter
    (fun sys ->
      let o = E.run sys params in
      let before, after =
        List.partition (fun (t, _) -> t < 15_000.0) o.E.latency_series
      in
      let avg l =
        match List.filter (fun (t, _) -> t >= 3_000.0) l with
        | [] -> nan
        | l -> List.fold_left (fun acc (_, v) -> acc +. v) 0.0 l /. float_of_int (List.length l)
      in
      Format.printf "%-10s: avg latency %.0f ms before drops, %.0f ms after (%.1fx)@."
        (E.system_name sys) (avg before) (avg after)
        (avg after /. avg before))
    [ E.Shoalpp; E.Mysticeti ];
  Format.printf
    "@.certified DAGs keep data recovery off the critical path; uncertified DAGs stall on it.@."
