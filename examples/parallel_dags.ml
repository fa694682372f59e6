(* Parallel staggered DAGs (§5.3): the queuing-latency augmentation.

   Sweeps the number of concurrent DAG instances k on the same deployment
   and prints how queuing latency falls (proposal opportunities every
   round/k) while the interleaving of per-DAG logs keeps a single total
   order. Also demonstrates the round-robin interleave invariant directly:
   the global log's segments rotate dag 0,1,2,0,1,2,...

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
    "@.queuing latency falls with k (proposals every round/k) but round-robin@.\
     interleaving buffers segments of the fastest DAG; at low load the two@.\
     roughly cancel, and the k=3 win is throughput (smaller, more frequent@.\
     batches) -- exactly the trade-off the paper reports in Fig 6.@.";

  (* The interleave invariant, observed directly. *)
  Format.printf "@.=== global log rotates across DAGs ===@.";
  let committee = Committee.make ~n:4 () in
  let engine = Engine.create () in
  let topology = Topology.clique ~regions:4 ~one_way_ms:20.0 in
  let assignment = Topology.assign_round_robin topology ~n:4 in
  let net =
    Netmodel.create ~engine ~topology ~assignment ~fault:(Faults.schedule Faults.none ~n:4)
      ~config:Netmodel.default_config ~seed:3 ()
  in
  let world = Shoalpp_backend.Backend_sim.of_net net in
  let protocol = { (Config.shoalpp ~committee) with Config.stagger_ms = 20.0 } in
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
                   ids := o.Replica.segment.Shoalpp_consensus.Driver.dag_id :: !ids)
             else None)
          ())
  in
  Array.iter Replica.start replicas;
  Engine.run ~until:2_000.0 engine;
  let ids = List.rev !ids in
  Format.printf "first segments' dag ids: %s ...@."
    (String.concat " " (List.map string_of_int (List.filteri (fun i _ -> i < 18) ids)));
  let ok = List.for_all2 (fun i dag -> dag = i mod 3) (List.init (List.length ids) Fun.id) ids in
  Format.printf "strict round-robin: %b@." ok
