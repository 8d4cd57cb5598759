(** The differential oracle: one generated case, every configuration.

    Runs a case's [ref_] program under a battery of allocator
    configurations and checks three families of invariants:

    - {b semantic equivalence}: return value and the
      {!Fuzz_observe.digest} observables (allocation-site sequence,
      object-relative access trace, free order) must match the jemalloc
      reference run bit for bit — rewriting and pool allocation must be
      behaviour-preserving (the paper's central §4 claim);
    - {b heap invariants}: every run is wrapped in {!Heap_check}
      (alignment, no overlapping live blocks, matched frees, usable-size
      bounds) and in the {!Vmem} segfault trap;
    - {b plan well-formedness}: the HALO plan derived from the paired
      [test] program passes {!Plan_check} before being instantiated.

    The standard battery: [jemalloc] (reference), [bump], [ptmalloc],
    [random-4] pools, [halo-noalloc] (patched binary, default allocator)
    and [halo] (patched binary + synthesised group allocator). [extra]
    adds externally supplied configurations — the hook fault-injection
    tests and local allocator experiments use to prove the oracle bites. *)

type failure = {
  config : string;  (** Configuration name, or ["plan"]. *)
  reason : string;
}

type stats = {
  configs : int;  (** Configurations executed. *)
  allocs : int;  (** Allocation events checked, summed over configs. *)
  accesses : int;  (** Accesses digested, summed over configs. *)
  groups : int;  (** Groups in the HALO plan. *)
  monitored : int;  (** Monitored sites (group-state bits) in the plan. *)
  contexts : int;  (** Interned allocation contexts in the plan's profile. *)
}

type result = {
  failures : failure list;
  stats : stats;
  ref_ret : (int, string) Stdlib.result;
      (** The jemalloc reference run's return value ([Error] = crash). *)
  ref_dig : Fuzz_observe.digest;
      (** The jemalloc reference run's observable digest — together with
          [ref_ret] and [stats] this pins a case's semantics, so recorded
          values double as a golden corpus for interpreter changes. *)
}
(** [failures = []] is a pass. *)

val run_case :
  ?extra:(string * (Vmem.t -> Alloc_iface.t)) list ->
  ?plan_source:Pipeline.plan_source ->
  Fuzz_gen.case ->
  result
(** Deterministic: equal cases yield equal results. Never raises on
    misbehaving allocators or pipelines — crashes (simulated segfaults,
    allocator [Failure]s, pipeline exceptions) become failures.
    [plan_source] (the persistent store's plan cache) answers the HALO
    plan call — generated programs are cache-keyed like any other, so a
    re-run campaign skips re-profiling unchanged cases. *)
