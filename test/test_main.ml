(* Aggregates every suite; `dune runtest` runs them all.
   ALCOTEST_QUICK_TESTS=1 skips the `Slow-marked full-workload cases. *)

let () =
  Alcotest.run "leakpruning"
    [
      Test_obs.suite;
      Test_word.suite;
      Test_header.suite;
      Test_stale_counter.suite;
      Test_store.suite;
      Test_word_store.suite;
      Test_roots.suite;
      Test_collector.suite;
      Test_edge_table.suite;
      Test_state_machine.suite;
      Test_selection.suite;
      Test_controller.suite;
      Test_vm_mutator.suite;
      Test_diskswap.suite;
      Test_resurrection.suite;
      Test_retention.suite;
      Test_fault.suite;
      Test_engines.suite;
      Test_degradation.suite;
      Test_generational.suite;
      Test_diagnostics.suite;
      Test_cyclic.suite;
      Test_harness.suite;
      Test_fleet.suite;
      Test_super.suite;
      Test_jheap.suite;
      Test_jit.suite;
      Test_semantics.suite;
      Test_paper_example.suite;
      Test_workloads.suite;
      Test_collect_arms.suite;
      Test_liveness.suite;
      Test_autopilot.suite;
      Test_alloc_budget.suite;
    ]
