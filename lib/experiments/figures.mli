(** Regeneration of every table and figure in the paper's evaluation.

    Each function prints (and returns) a text table holding the
    reproduction's measured values next to the paper's reported values
    (exact for Table 1, approximate visual reads for the bar charts; see
    {!Paper_data}). The measurement harness is deterministic, so one run
    per configuration suffices — {!run_suite} optionally takes several
    seeds to exercise input variation, reporting medians as §5.1 does. *)

type suite = {
  workloads : Workload.t list;
  seeds : int list;
  data : (string * (Runner.kind * Runner.measurement list) list) list;
      (** workload name → kind → one measurement per seed (same order as
          [seeds]). Exposed so suites can be composed or filtered
          dynamically; the table renderers degrade gracefully (printing
          ["-"]) when a bench/kind cell is missing or short. *)
}
(** All per-benchmark measurements needed by Figures 13–15 and Table 1. *)

val suite_kinds : Runner.kind list
(** The four configurations a suite measures: jemalloc, HALO, HDS and the
    random 4-pool strawman. *)

val run_suite :
  ?seeds:int list ->
  ?workloads:Workload.t list ->
  ?progress:(string -> unit) ->
  ?jobs:int ->
  ?obs:Obs.t ->
  ?plan_source:Pipeline.plan_source ->
  unit ->
  suite
(** Run jemalloc / HALO / HDS / random-4 over the workloads (default: all
    11) for each seed (default [[2]]). [progress] is called with a line
    per configuration as it completes (from worker domains when parallel,
    serialised). [jobs] fans the workload×kind×seed cells out over a
    {!Par} domain pool (default {!Par.default_jobs}); every cell is an
    independent simulation, so the suite's measurements are bit-for-bit
    identical at any [jobs] value. [obs] receives per-worker metric
    registries merged after the join plus [suite.tasks]/[suite.workers]
    accounting. [plan_source] (typically the persistent store's plan
    cache) answers the HALO cells' [Pipeline.plan] calls: since a plan
    depends only on the test program and pipeline config, a warmed cache
    runs the whole suite — any seeds, any [jobs] — with zero profiler
    invocations. *)

val runs_of : suite -> string -> Runner.kind -> Runner.measurement list
(** [runs_of suite bench kind] is the per-seed measurement list, or [[]]
    when the suite holds no such cell. *)

val metric_values :
  suite ->
  string ->
  Runner.kind ->
  (baseline:Runner.measurement -> Runner.measurement -> float) ->
  float array
(** Per-seed metric derived from (jemalloc baseline, run) pairs, zipping
    only the common prefix when the lists differ in length. *)

val metric_cell :
  suite ->
  string ->
  Runner.kind ->
  (baseline:Runner.measurement -> Runner.measurement -> float) ->
  string
(** §5.1 presentation of {!metric_values}: ["-"] when empty, the value
    for one seed, median with \[p25, p75\] error bars for several. *)

val fig13 : suite -> Table.t
(** Fig. 13: L1 D-cache miss reduction, HDS and HALO vs jemalloc. *)

val fig14 : suite -> Table.t
(** Fig. 14: speedup, HDS and HALO vs jemalloc. *)

val fig15 : suite -> Table.t
(** Fig. 15: speedup of the random 4-pool allocator vs jemalloc. *)

val tab1 : suite -> Table.t
(** Table 1: fragmentation of grouped objects at peak usage under HALO. *)

val fig12 : ?distances:int list -> unit -> Table.t
(** Fig. 12: omnetpp execution time across affinity distances
    (default 2^3 .. 2^17), with the jemalloc baseline. *)

val selection_criterion : ?workloads:Workload.t list -> unit -> Table.t
(** §5.1's benchmark-selection rule: heap allocations per million
    instructions on the train inputs (the SPECrate subset was chosen at
    more than one per million). *)

val sec51_baseline : ?workloads:Workload.t list -> unit -> Table.t
(** §5.1's baseline-choice claim: jemalloc vs ptmalloc2 L1D misses
    (jemalloc reduced misses by as much as 32%). *)

val overhead_control : ?workloads:Workload.t list -> unit -> Table.t
(** §5.2's control: BOLT-instrumented binaries running {e without} the
    specialised allocator — instrumentation overhead should be noise. *)

val hds_diagnostics : suite -> Table.t
(** The §5.2 roms analysis: candidate stream counts vs affinity graph
    sizes per benchmark (paper: >150,000 streams vs 31 nodes). *)

val ablation_grouping : ?workloads:Workload.t list -> unit -> Table.t
(** Ablation backing the §4.2 claim: Figure 6's grouping vs modularity,
    HCS and threshold-component clustering, each swapped into the full
    pipeline and measured end to end. *)

val ablation_packing : ?workloads:Workload.t list -> unit -> Table.t
(** Ablation: hot-data-streams with identical co-allocation sets merged
    before set packing (repairing the weight scattering §5.2 identifies)
    vs the stream-faithful default. *)

val ablation_identification : ?workloads:Workload.t list -> unit -> Table.t
(** The identification-granularity ablation (§2.2.3 / §3): HALO's grouping
    with runtime identification by immediate call site, by Calder's XOR of
    the last four sites, and by full-context selectors. Isolates the
    paper's full-context contribution. *)

val ablation_backend : ?workloads:Workload.t list -> unit -> Table.t
(** Extension (§6 future work): grouped pools backed by sharded free
    lists instead of pure bump allocation — fragmentation at peak and the
    locality cost/benefit, side by side. *)

val ablation_sampling : ?workloads:Workload.t list -> ?periods:int list -> unit -> Table.t
(** Extension: the profiling speed/accuracy trade-off the paper declined
    (§4.1 applies no sampling). Plans derived from sampled profiles are
    measured end to end at several sampling periods. *)

val drift_study : ?jobs:int -> unit -> Table.t
(** Extension (multi-tenant traffic): the plan-staleness drift study —
    {!Traffic_study} at reduced scale (3 drifts x 3 cadences over 4
    epochs), reporting when re-profiling cadence beats a stale plan.
    [halo traffic study] exposes the full-size sweep. *)

val print_all :
  ?jobs:int -> ?obs:Obs.t -> ?plan_source:Pipeline.plan_source -> unit -> unit
(** Run everything in order and print each table — the body of
    [bench/main.exe]'s experiment mode. [jobs] parallelises the
    suite-backed tables; the sweeps and ablations stay sequential. [obs]
    is threaded into the suite run (worker spans and registries fold into
    it), feeding [figures --trace-out]'s Chrome-trace export. *)
