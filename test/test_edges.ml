(* Final edge-case sweep across modules: growth/boundary behaviours that the
   main suites don't pin down. *)

module Rng = Shoalpp_support.Rng
module Heap = Shoalpp_support.Heap
module Stats = Shoalpp_support.Stats
module Engine = Shoalpp_sim.Engine
module Topology = Shoalpp_sim.Topology
module Committee = Shoalpp_dag.Committee
module Types = Shoalpp_dag.Types
module Store = Shoalpp_dag.Store
module Signer = Shoalpp_crypto.Signer
module Reputation = Shoalpp_consensus.Reputation

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_heap_large_random () =
  let rng = Rng.create 99 in
  let h = Heap.create () in
  let n = 10_000 in
  for _ = 1 to n do
    let v = Rng.int rng 1_000 in
    Heap.add h ~at:(float_of_int v) v
  done;
  checki "size" n (Heap.length h);
  let rec drain prev count =
    match Heap.pop h with
    | None -> count
    | Some v ->
      checkb "non-decreasing" true (v >= prev);
      drain v (count + 1)
  in
  checki "all drained in order" n (drain min_int 0)

let test_stats_merge_matches_naive () =
  let rng = Rng.create 17 in
  let xs = List.init 500 (fun _ -> Rng.float rng 100.0) in
  let ys = List.init 300 (fun _ -> Rng.float rng 50.0) in
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  List.iter (Stats.Summary.add a) xs;
  List.iter (Stats.Summary.add b) ys;
  let merged = Stats.Summary.merge a b in
  let naive = Stats.Summary.create () in
  List.iter (Stats.Summary.add naive) (xs @ ys);
  Alcotest.(check (float 1e-6)) "mean" (Stats.Summary.mean naive) (Stats.Summary.mean merged);
  Alcotest.(check (float 1e-6)) "stddev" (Stats.Summary.stddev naive) (Stats.Summary.stddev merged);
  checki "count" (Stats.Summary.count naive) (Stats.Summary.count merged)

let test_engine_cancel_after_fire_noop () =
  let e = Engine.create () in
  let fired = ref 0 in
  let t = Engine.schedule e ~after:1.0 (fun () -> incr fired) in
  Engine.run e;
  Engine.cancel t;
  (* cancelling twice, and after firing, must be harmless *)
  Engine.cancel t;
  checki "fired once" 1 !fired

let test_engine_cancel_inside_handler () =
  let e = Engine.create () in
  let fired = ref [] in
  let t2 = ref None in
  ignore
    (Engine.schedule e ~after:1.0 (fun () ->
         fired := 1 :: !fired;
         match !t2 with Some t -> Engine.cancel t | None -> ()));
  t2 := Some (Engine.schedule e ~after:2.0 (fun () -> fired := 2 :: !fired));
  Engine.run e;
  Alcotest.(check (list int)) "second cancelled from first" [ 1 ] (List.rev !fired)

let test_store_gc_then_counters_ignore_old () =
  let committee = Committee.make ~n:4 ~cluster_seed:31 () in
  let store = Store.create ~n:4 ~genesis_digest:committee.Committee.genesis in
  let make ~round ~author ~parents =
    let batch = Shoalpp_workload.Batch.empty ~created_at:0.0 in
    let digest =
      Types.node_digest ~lane:0 ~round ~author ~batch_digest:batch.Shoalpp_workload.Batch.digest
        ~parents ~weak_parents:[]
    in
    {
      Types.round;
      author;
      batch;
      parents;
      weak_parents = [];
      digest;
      signature =
        Signer.sign (Committee.keypair committee author) (Shoalpp_crypto.Digest32.raw digest);
      created_at = 0.0;
    }
  in
  let certify node =
    {
      Types.cn_node = node;
      cn_cert =
        {
          Types.cert_ref = Types.ref_of_node node;
          multisig =
            Shoalpp_crypto.Multisig.aggregate ~n:4
              (List.init 3 (fun i ->
                   ( i,
                     Signer.sign (Committee.keypair committee i)
                       (Types.vote_preimage ~lane:0 ~round:node.Types.round ~author:node.Types.author
                          ~digest:node.Types.digest) )));
        };
    }
  in
  let r0 = List.map (fun a -> certify (make ~round:0 ~author:a ~parents:[])) [ 0; 1; 2; 3 ] in
  List.iter (fun cn -> ignore (Store.add_certified store cn)) r0;
  ignore (Store.prune_below store ~round:1);
  (* A round-1 node arriving after GC must not crash counter updates for its
     pruned parents, and must itself insert fine. *)
  let parents = List.map (fun cn -> Types.ref_of_node cn.Types.cn_node) r0 in
  let late = certify (make ~round:1 ~author:0 ~parents) in
  checkb "inserts" true (Store.add_certified store late);
  checki "no counters below horizon" 0 (Store.certified_refs store ~round:0 ~author:0)

let test_signer_cross_cluster_isolation () =
  let a = Signer.keygen ~cluster_seed:1 ~replica:0 in
  let s = Signer.sign a "m" in
  checkb "verifies in own cluster" true (Signer.verify (Signer.registry ~cluster_seed:1 ~n:4) 0 "m" s);
  checkb "rejected in other cluster" false (Signer.verify (Signer.registry ~cluster_seed:2 ~n:4) 0 "m" s)

let test_reputation_slot_rotation_bounds () =
  let r = Reputation.create ~n:5 ~enabled:false () in
  (* Any slot, including huge and zero, yields a permutation of 0..4. *)
  List.iter
    (fun slot ->
      let v = Reputation.eligible r ~round:3 ~slot in
      checki "length" 5 (List.length v);
      Alcotest.(check (list int)) "permutation" [ 0; 1; 2; 3; 4 ] (List.sort compare v))
    [ 0; 1; 4; 5; 49; 1_000_003 ]

let test_topology_clique_diagonal () =
  let t = Topology.clique ~regions:3 ~one_way_ms:40.0 in
  checkb "intra-region fast" true (Topology.one_way_ms t 1 1 < 1.0);
  Alcotest.(check (float 1e-9)) "inter" 40.0 (Topology.one_way_ms t 0 2)

let test_batch_empty_wire_size () =
  let b = Shoalpp_workload.Batch.empty ~created_at:0.0 in
  checki "header only" 4 (Shoalpp_workload.Batch.wire_size b)

let test_committee_larger_sizes () =
  List.iter
    (fun n ->
      let c = Committee.make ~n () in
      checki "n-f = 2f+1 at n=3f+1" (Committee.quorum c) (Committee.fast_quorum c)
      |> fun () -> checkb "f+1 <= quorum" true (Committee.weak_quorum c <= Committee.quorum c))
    [ 4; 7; 10; 100 ]

let suite =
  [
    ( "edges",
      [
        Alcotest.test_case "heap large random" `Quick test_heap_large_random;
        Alcotest.test_case "stats merge exact" `Quick test_stats_merge_matches_naive;
        Alcotest.test_case "cancel after fire" `Quick test_engine_cancel_after_fire_noop;
        Alcotest.test_case "cancel inside handler" `Quick test_engine_cancel_inside_handler;
        Alcotest.test_case "gc then counters" `Quick test_store_gc_then_counters_ignore_old;
        Alcotest.test_case "signer cluster isolation" `Quick test_signer_cross_cluster_isolation;
        Alcotest.test_case "reputation rotation bounds" `Quick test_reputation_slot_rotation_bounds;
        Alcotest.test_case "topology clique diagonal" `Quick test_topology_clique_diagonal;
        Alcotest.test_case "empty batch size" `Quick test_batch_empty_wire_size;
        Alcotest.test_case "committee sizes" `Quick test_committee_larger_sizes;
      ] );
  ]
