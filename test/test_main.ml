(* The aggregate test runner: one alcotest suite per library.

   `dune runtest` runs everything, including the slower end-to-end
   experiment shape checks (registered `Slow`; skip with
   ALCOTEST_QUICK_TESTS=1 when iterating). *)

let () =
  Alcotest.run "halo"
    [
      ("util", T_util.suite);
      ("obs", T_obs.suite);
      ("telemetry", T_telemetry.suite);
      ("par", T_par.suite);
      ("mem", T_mem.suite);
      ("alloc", T_alloc.suite);
      ("cachesim", T_cachesim.suite);
      ("vm", T_vm.suite);
      ("profile", T_profile.suite);
      ("core", T_core.suite);
      ("store", T_store.suite);
      ("serve", T_serve.suite);
      ("fuzz", T_fuzz.suite);
      ("hds", T_hds.suite);
      ("workloads", T_workloads.suite);
      ("traffic", T_traffic.suite);
      ("extensions", T_extensions.suite);
      ("reference-models", T_reference_models.suite);
      ("experiments", T_experiments.suite);
    ]
