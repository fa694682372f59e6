(* Quickstart: the smallest end-to-end Shoal++ deployment.

   Builds a 4-replica committee on a small simulated network, submits a
   handful of transactions by hand, runs the simulation, and prints the
   totally ordered log — showing which DAG instance each segment came from,
   which anchor committed it and under which rule.

     dune exec examples/quickstart.exe *)

module Engine = Shoalpp_sim.Engine
module Topology = Shoalpp_sim.Topology
module Netmodel = Shoalpp_sim.Netmodel
module Faults = Shoalpp_sim.Faults
module Committee = Shoalpp_dag.Committee
module Types = Shoalpp_dag.Types
module Config = Shoalpp_core.Config
module Replica = Shoalpp_core.Replica
module Driver = Shoalpp_consensus.Driver
module Mempool = Shoalpp_workload.Mempool
module Transaction = Shoalpp_workload.Transaction
module Batch = Shoalpp_workload.Batch

let () =
  (* 1. A committee of n = 4 replicas (tolerates f = 1 Byzantine). *)
  let committee = Committee.make ~n:4 ~cluster_seed:2024 () in
  Format.printf "committee: %a@." Committee.pp committee;

  (* 2. A simulated network: 4 regions, 25 ms one-way between regions. *)
  let engine = Engine.create () in
  let topology = Topology.clique ~regions:4 ~one_way_ms:25.0 in
  let assignment = Topology.assign_round_robin topology ~n:4 in
  let net =
    Netmodel.create ~engine ~topology ~assignment ~fault:(Faults.schedule Faults.none ~n:4)
      ~config:Netmodel.default_config ~seed:7 ()
  in
  let world = Shoalpp_backend.Backend_sim.of_net net in

  (* 3. Four Shoal++ replicas, k = 3 DAG lanes kept about a third of a
     round apart by the phase gate. Replica 0 prints every segment appended
     to its totally ordered log. *)
  let protocol = Config.shoalpp ~committee in
  let mempools = Array.init 4 (fun _ -> Mempool.create ()) in
  let print_segment (o : Replica.ordered) =
    let s = o.Replica.segment in
    let kind =
      match s.Driver.kind with
      | Driver.Fast -> "fast"
      | Driver.Direct -> "direct"
      | Driver.Indirect -> "indirect"
    in
    let txns =
      List.concat_map
        (fun (cn : Types.certified_node) ->
          List.map
            (fun (tx : Transaction.t) -> tx.Transaction.id)
            (Batch.txns cn.Types.cn_node.Types.batch))
        s.Driver.nodes
    in
    Format.printf "log[%3d] <- dag %d, anchor %a (%s commit), %d nodes, txns %s@."
      o.Replica.global_seq s.Driver.dag_id Types.pp_ref s.Driver.anchor kind
      (List.length s.Driver.nodes)
      (match txns with
      | [] -> "-"
      | _ -> String.concat "," (List.map string_of_int txns))
  in
  let replicas =
    Array.init 4 (fun replica_id ->
        Replica.create ~config:protocol ~replica_id
          ~backend:(Shoalpp_backend.Backend_sim.backend world)
          ~mempool:mempools.(replica_id)
          ?on_ordered:(if replica_id = 0 then Some print_segment else None)
          ())
  in
  Array.iter Replica.start replicas;

  (* 4. Submit ten transactions by hand, two per 30 ms, to replica 0. *)
  for i = 0 to 9 do
    ignore
      (Engine.schedule engine
         ~after:(float_of_int (i / 2) *. 30.0)
         (fun () ->
           let tx =
             Transaction.make ~id:i ~submitted_at:(Engine.now engine) ~origin:0 ()
           in
           ignore (Mempool.submit mempools.(0) tx)))
  done;

  (* 5. Run one simulated second and summarize. *)
  Engine.run ~until:1_000.0 engine;
  Format.printf "@.after 1 simulated second:@.";
  Array.iter
    (fun r ->
      Format.printf "  replica %d: log length %d, %d txns ordered, DAG rounds %s@."
        (Replica.replica_id r) (Replica.log_length r) (Replica.txns_ordered r)
        (String.concat "," (List.map string_of_int (Replica.current_rounds r))))
    replicas;
  let r0 = replicas.(0) in
  List.iteri
    (fun dag (s : Driver.stats) ->
      Format.printf "  dag %d commits: %d fast / %d direct / %d indirect@." dag
        s.Driver.fast_commits s.Driver.direct_commits s.Driver.indirect_commits)
    (Replica.driver_stats r0)
