(* Aggregates all suites into one alcotest binary (dune runtest). *)

let () =
  Alcotest.run "shoalpp"
    (Test_support.suite @ Test_crypto.suite @ Test_sim.suite @ Test_workload.suite
   @ Test_dag.suite @ Test_instance.suite @ Test_consensus.suite @ Test_core.suite
   @ Test_baselines.suite @ Test_protocols.suite @ Test_extensions.suite @ Test_agreement.suite @ Test_edges.suite @ Test_observability.suite @ Test_prom.suite @ Test_faults.suite @ Test_storage.suite @ Test_perf_fixes.suite @ Test_backend.suite
   @ Test_multicore.suite @ Test_tcp.suite @ Test_wire.suite @ Test_lint.suite @ Test_ck_manager.suite)
