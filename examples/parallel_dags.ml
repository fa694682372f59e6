(* Parallel staggered DAGs (§5.3): the queuing-latency augmentation.

   Sweeps the number of concurrent DAG instances k on the same deployment
   and prints how queuing latency falls (proposal opportunities every
   round/k: a phase gate lets lane j enter a round only 3/4 P/k after lane
   j-1 did, P the measured round period) while the interleaving of per-DAG
   logs keeps a single total order. Also demonstrates the interleave invariant directly: the global
   log is round-major — each anchor round's segments of dag 0, then dag 1,
   then dag 2, then the next round.

     dune exec examples/parallel_dags.exe *)

module E = Shoalpp_baselines.Experiment
module Report = Shoalpp_runtime.Report
module Tablefmt = Shoalpp_support.Tablefmt
module Engine = Shoalpp_sim.Engine
module Topology = Shoalpp_sim.Topology
module Netmodel = Shoalpp_sim.Netmodel
module Faults = Shoalpp_sim.Faults
module Committee = Shoalpp_dag.Committee
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Mempool = Shoalpp_workload.Mempool

let () =
  Format.printf "=== k-DAG sweep (n=16, geo, 2000 tps) ===@.";
  let rows =
    List.map
      (fun k ->
        let o =
          E.run E.Shoalpp
            {
              E.default_params with
              E.n = 16;
              load_tps = 2_000.0;
              duration_ms = 15_000.0;
              warmup_ms = 3_000.0;
              num_dags = Some k;
              verify_signatures = false;
            }
        in
        Printf.sprintf "k=%d" k :: List.tl (Report.table_row o.E.report))
      [ 1; 2; 3; 4 ]
  in
  Tablefmt.print ~header:Report.table_header rows;
  Format.printf
    "@.queuing latency falls with k (proposals every round/k); the merge holds@.\
     a lane's segments only until the lanes before it close the same anchor@.\
     round, and the phase gate keeps the lanes in the same round a fraction@.\
     of a round apart, so their queuing gain reaches the end-to-end latency@.\
     (the paper's Fig 6).@.";

  (* The interleave invariant, observed directly. *)
  Format.printf "@.=== global log is round-major across DAGs ===@.";
  let committee = Committee.make ~n:4 () in
  let engine = Engine.create () in
  let topology = Topology.clique ~regions:4 ~one_way_ms:20.0 in
  let assignment = Topology.assign_round_robin topology ~n:4 in
  let net =
    Netmodel.create ~engine ~topology ~assignment ~fault:(Faults.schedule Faults.none ~n:4)
      ~config:Netmodel.default_config ~seed:3 ()
  in
  let world = Shoalpp_backend.Backend_sim.of_net net in
  let protocol = Config.shoalpp ~committee in
  let mempools = Array.init 4 (fun _ -> Mempool.create ()) in
  let ids = ref [] in
  let replicas =
    Array.init 4 (fun replica_id ->
        Replica.create ~config:protocol ~replica_id
          ~backend:(Shoalpp_backend.Backend_sim.backend world)
          ~mempool:mempools.(replica_id)
          ?on_ordered:
            (if replica_id = 0 then
               Some
                 (fun (o : Replica.ordered) ->
                   let seg = o.Replica.segment in
                   ids :=
                     ( seg.Shoalpp_consensus.Driver.anchor.Shoalpp_dag.Types.ref_round,
                       seg.Shoalpp_consensus.Driver.dag_id )
                     :: !ids)
             else None)
          ())
  in
  Array.iter Replica.start replicas;
  Engine.run ~until:2_000.0 engine;
  let ids = List.rev !ids in
  Format.printf "first segments' (round, dag): %s ...@."
    (String.concat " "
       (List.map
          (fun (r, d) -> Printf.sprintf "(%d,%d)" r d)
          (List.filteri (fun i _ -> i < 18) ids)));
  let rec sorted = function a :: (b :: _ as rest) -> compare a b <= 0 && sorted rest | _ -> true in
  Format.printf "round-major: %b@." (sorted ids)
