(* Cross-cutting protocol properties: Byzantine message injection, safety
   under randomized fault schedules (property-based over seeds), long-run
   garbage-collection stability, and cross-system determinism. *)

module E = Shoalpp_baselines.Experiment
module Cluster = Shoalpp_runtime.Cluster
module Report = Shoalpp_runtime.Report
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Committee = Shoalpp_dag.Committee
module Types = Shoalpp_dag.Types
module Engine = Shoalpp_sim.Engine
module Topology = Shoalpp_sim.Topology
module Netmodel = Shoalpp_sim.Netmodel
module Signer = Shoalpp_crypto.Signer
module Digest32 = Shoalpp_crypto.Digest32
module Batch = Shoalpp_workload.Batch
module Transaction = Shoalpp_workload.Transaction

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Byzantine injection: a corrupt replica equivocates and forges. The
   cluster runs normally; we additionally push crafted messages straight
   into the network as replica 3. Safety must hold and at most one of two
   equivocating proposals may ever be voted for per correct replica. *)

let make_byz_node ~committee ~round ~author ~parents ~tag =
  let batch =
    Batch.make
      ~txns:[ Transaction.make ~id:(1_000_000 + tag) ~submitted_at:0.0 ~origin:author () ]
      ~created_at:0.0
  in
  let digest =
    Types.node_digest ~round ~author ~batch_digest:batch.Batch.digest ~parents ~weak_parents:[]
  in
  let kp = Committee.keypair committee author in
  {
    Types.round;
    author;
    batch;
    parents;
    weak_parents = [];
    digest;
    signature = Signer.sign kp (Digest32.raw digest);
    created_at = 0.0;
  }

let test_equivocating_proposer_is_safe () =
  let committee = Committee.make ~n:4 ~cluster_seed:9 () in
  let protocol = { (Config.shoalpp ~committee) with Config.num_dags = 1 } in
  let setup =
    {
      (Cluster.default_setup ~protocol) with
      Cluster.topology = Topology.clique ~regions:4 ~one_way_ms:20.0;
      load_tps = 100.0;
      warmup_ms = 500.0;
    }
  in
  let cluster = Cluster.create setup in
  let net = Cluster.net cluster in
  let engine = Cluster.engine cluster in
  (* At t=500ms, replica 3 equivocates in round 0: conflicting proposals to
     replicas {0,1} and {2}. (Its honest round-0 proposal already went out;
     these are two MORE conflicting ones.) *)
  ignore
    (Engine.schedule engine ~after:500.0 (fun () ->
         let a = make_byz_node ~committee ~round:0 ~author:3 ~parents:[] ~tag:1 in
         let b = make_byz_node ~committee ~round:0 ~author:3 ~parents:[] ~tag:2 in
         let send dst payload =
           Netmodel.send net ~src:3 ~dst
             ~size:(Replica.envelope_size { Replica.dag_id = 0; payload })
             { Replica.dag_id = 0; payload }
         in
         send 0 (Types.Proposal a);
         send 1 (Types.Proposal a);
         send 2 (Types.Proposal b)));
  Cluster.run cluster ~duration_ms:8_000.0;
  let audit = Cluster.audit cluster in
  checkb "consistent despite equivocation" true audit.Cluster.consistent_prefixes;
  checki "no duplicates" 0 audit.Cluster.duplicate_orders;
  let r = Cluster.report cluster ~duration_ms:8_000.0 in
  checkb "liveness preserved" true (r.Report.committed > 300)

let test_forged_messages_ignored () =
  let committee = Committee.make ~n:4 ~cluster_seed:9 () in
  let protocol = { (Config.shoalpp ~committee) with Config.num_dags = 1 } in
  let setup =
    {
      (Cluster.default_setup ~protocol) with
      Cluster.topology = Topology.clique ~regions:4 ~one_way_ms:20.0;
      load_tps = 100.0;
      warmup_ms = 500.0;
    }
  in
  let cluster = Cluster.create setup in
  let net = Cluster.net cluster in
  let engine = Cluster.engine cluster in
  (* Replica 3 impersonates replica 1 (forged signature) and also sends a
     structurally invalid certificate. *)
  let send payload =
    for dst = 0 to 2 do
      Netmodel.send net ~src:3 ~dst
        ~size:(Replica.envelope_size { Replica.dag_id = 0; payload })
        { Replica.dag_id = 0; payload }
    done
  in
  ignore
    (Engine.schedule engine ~after:400.0 (fun () ->
         let fake = make_byz_node ~committee ~round:0 ~author:3 ~parents:[] ~tag:3 in
         let impersonated = { fake with Types.author = 1 } in
         let bad_cert =
           {
             Types.cert_ref = Types.ref_of_node fake;
             multisig =
               Shoalpp_crypto.Multisig.aggregate ~n:4
                 [ (3, Signer.sign (Committee.keypair committee 3) "junk") ];
           }
         in
         List.iter send [ Types.Proposal impersonated; Types.Certificate bad_cert ]));
  (* Honest originals first, then forged twins of the very same physical
     values once every receiver has accepted them: a twin reuses the
     original's signature or aggregate and keeps its digest, so it lands on
     the memo slot the original left behind and must still be refused. *)
  let orig = make_byz_node ~committee ~round:0 ~author:3 ~parents:[] ~tag:4 in
  let preimage = Types.vote_preimage ~round:0 ~author:3 ~digest:orig.Types.digest in
  let cert =
    {
      Types.cert_ref = Types.ref_of_node orig;
      multisig =
        Shoalpp_crypto.Multisig.aggregate ~n:4
          (List.init 3 (fun i -> (i, Signer.sign (Committee.keypair committee i) preimage)));
    }
  in
  let twins =
    [
      Types.Proposal
        { orig with Types.signature = Signer.sign (Committee.keypair committee 3) "junk" };
      Types.Proposal { orig with Types.batch = Batch.empty ~created_at:0.0 };
      Types.Certificate
        { cert with Types.cert_ref = { cert.Types.cert_ref with Types.ref_author = 2 } };
      Types.Certificate
        { cert with Types.cert_ref = { cert.Types.cert_ref with Types.ref_round = 1 } };
    ]
  in
  let dropped () = Array.map Replica.invalid_dropped (Cluster.replicas cluster) in
  let before = ref [||] in
  ignore
    (Engine.schedule engine ~after:700.0 (fun () ->
         List.iter send [ Types.Proposal orig; Types.Certificate cert ]));
  ignore
    (Engine.schedule engine ~after:1_500.0 (fun () ->
         before := dropped ();
         List.iter send twins));
  Cluster.run cluster ~duration_ms:6_000.0;
  Array.iteri
    (fun r after ->
      checki
        (Printf.sprintf "replica %d drops every twin" r)
        (if r < 3 then List.length twins else 0)
        (after - !before.(r)))
    (dropped ());
  let audit = Cluster.audit cluster in
  checkb "consistent despite forgeries" true audit.Cluster.consistent_prefixes;
  checkb "liveness preserved" true
    ((Cluster.report cluster ~duration_ms:6_000.0).Report.committed > 200)

(* ------------------------------------------------------------------ *)
(* Property: safety holds for every (seed, crash count, load) sampled. *)

let prop_safety_under_random_faults =
  QCheck.Test.make ~name:"safety under randomized crash/load/seed" ~count:12
    QCheck.(triple (int_bound 1000) (int_bound 2) (int_range 1 6))
    (fun (seed, crashes, load_scale) ->
      let params =
        {
          E.default_params with
          E.n = 7;
          load_tps = 100.0 *. float_of_int load_scale;
          duration_ms = 4_000.0;
          warmup_ms = 500.0;
          topology = Topology.clique ~regions:7 ~one_way_ms:15.0;
          scenario = Shoalpp_sim.Faults.crash ~count:crashes ();
          seed;
        }
      in
      let o = E.run E.Shoalpp params in
      o.E.audit_ok)

let prop_safety_under_random_drops =
  QCheck.Test.make ~name:"safety under randomized drops" ~count:8
    QCheck.(pair (int_bound 1000) (int_range 1 10))
    (fun (seed, drop_pct) ->
      let params =
        {
          E.default_params with
          E.n = 4;
          load_tps = 150.0;
          duration_ms = 4_000.0;
          warmup_ms = 500.0;
          topology = Topology.clique ~regions:4 ~one_way_ms:15.0;
          scenario = Shoalpp_sim.Faults.drop ~rate:(float_of_int drop_pct /. 100.0) ~from_time:1_000.0 ();
          seed;
        }
      in
      let o = E.run E.Shoalpp params in
      o.E.audit_ok)

(* ------------------------------------------------------------------ *)
(* Long-run GC stability: stores and instance tables stay bounded. *)

let test_gc_bounds_state () =
  let committee = Committee.make ~n:4 ~cluster_seed:5 () in
  let protocol = { (Config.shoalpp ~committee) with Config.stagger_ms = 20.0 } in
  let setup =
    {
      (Cluster.default_setup ~protocol) with
      Cluster.topology = Topology.clique ~regions:4 ~one_way_ms:20.0;
      load_tps = 300.0;
      warmup_ms = 500.0;
    }
  in
  let cluster = Cluster.create setup in
  Cluster.run cluster ~duration_ms:60_000.0;
  (* ~700 rounds happened; the GC horizon must have advanced with commits. *)
  Array.iter
    (fun r ->
      List.iter
        (fun round -> checkb "deep rounds reached" true (round > 300))
        (Replica.current_rounds r))
    (Cluster.replicas cluster);
  checkb "still consistent after 60s" true (Cluster.audit cluster).Cluster.consistent_prefixes;
  (* Latency stays flat: last-window mean within 3x of global median. *)
  let ledger = Cluster.ledger cluster in
  let series = Shoalpp_runtime.Ledger.latency_series ledger in
  match List.rev series with
  | (_, last) :: _ ->
    let p50 =
      Shoalpp_support.Stats.Summary.percentile (Shoalpp_runtime.Ledger.latency ledger) 0.5
    in
    checkb
      (Printf.sprintf "no drift (last window %.0f vs p50 %.0f)" last p50)
      true (last < 3.0 *. p50)
  | [] -> Alcotest.fail "no series"

(* ------------------------------------------------------------------ *)
(* Determinism across all systems. *)

let test_all_systems_deterministic () =
  let params =
    {
      E.default_params with
      E.n = 4;
      load_tps = 120.0;
      duration_ms = 3_000.0;
      warmup_ms = 500.0;
      topology = Topology.clique ~regions:4 ~one_way_ms:20.0;
    }
  in
  List.iter
    (fun sys ->
      let a = E.run sys params and b = E.run sys params in
      checkb
        (E.system_name sys ^ " deterministic")
        true
        (a.E.report.Report.committed = b.E.report.Report.committed
        && a.E.report.Report.latency_p50 = b.E.report.Report.latency_p50))
    [ E.Shoalpp; E.Shoal; E.Bullshark; E.Jolteon; E.Mysticeti ]

let test_seed_changes_outcome () =
  let params =
    {
      E.default_params with
      E.n = 4;
      load_tps = 120.0;
      duration_ms = 3_000.0;
      warmup_ms = 500.0;
      topology = Topology.clique ~regions:4 ~one_way_ms:20.0;
    }
  in
  let a = E.run E.Shoalpp params in
  let b = E.run E.Shoalpp { params with E.seed = params.E.seed + 1 } in
  checkb "different seeds differ" true
    (a.E.report.Report.latency_p50 <> b.E.report.Report.latency_p50
    || a.E.report.Report.committed <> b.E.report.Report.committed)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suite =
  [
    ( "protocols.byzantine",
      [
        Alcotest.test_case "equivocating proposer" `Quick test_equivocating_proposer_is_safe;
        Alcotest.test_case "forged messages ignored" `Quick test_forged_messages_ignored;
      ] );
    ( "protocols.properties",
      qsuite [ prop_safety_under_random_faults; prop_safety_under_random_drops ] );
    ( "protocols.longrun",
      [
        Alcotest.test_case "gc bounds state" `Slow test_gc_bounds_state;
        Alcotest.test_case "all systems deterministic" `Slow test_all_systems_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_seed_changes_outcome;
      ] );
  ]
