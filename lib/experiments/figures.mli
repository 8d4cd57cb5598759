(** Regeneration of every table and figure in the paper's evaluation.

    Each table holds the reproduction's measured values next to the paper's reported values
    (exact for Table 1, approximate visual reads for the bar charts; see
    {!Paper_data}). The measurement harness is deterministic, so one run
    per configuration suffices — a suite optionally takes several seeds
    to exercise input variation, reporting medians as §5.1 does.

    Every figure is a {!section}: the cells it measures, as data, and a
    table rendered from their measurements. {!print} runs the union of
    the sections' cells once each, on one domain pool, in two phases:
    every distinct plan, then every distinct cell under its plan. *)

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
    11) for each seed (default [[2]]) through {!run_cells}: each HALO and
    HDS plan is made once per workload, whatever the seeds. *)

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

val hds_diagnostics : suite -> Table.t
(** The §5.2 roms analysis: candidate stream counts vs affinity graph
    sizes per benchmark (paper: >150,000 streams vs 31 nodes). *)

(** {1 The cell grid} *)

type cell
(** One measurement: a workload, a kind, a seed, a pipeline config and a
    clusterer. Cells are equal when all five are. *)

val cell :
  ?seed:int -> ?config:Pipeline.config -> Workload.t -> Runner.kind -> cell
(** [cell w kind] measures [kind] on [w] with measurement seed [seed]
    (default 2) and pipeline config [config] (default
    {!Pipeline.default_config}, so a default-equal config is the same
    cell) under Figure 6's clusterer. *)

val run_cells :
  ?jobs:int ->
  ?obs:Obs.t ->
  ?plan_source:Pipeline.plan_source ->
  ?progress:(string -> unit) ->
  cell list ->
  cell ->
  Runner.measurement
(** [run_cells cells] measures every distinct cell once and returns the
    lookup (which raises [Not_found] on a cell not in [cells]). Phase 1
    makes every distinct plan: HALO kinds' by (workload, config,
    clusterer) through {!Runner.plan_halo}, which consults [plan_source]
    (typically the persistent plan cache), and HDS kinds' by (workload,
    merge). Phase 2 measures each cell under its plan. Each phase is one
    {!Par} fan-out over [jobs] domains (default {!Par.default_jobs}),
    named [plans] and [cells]; every task is an independent simulation,
    so the measurements are bit-for-bit identical at any [jobs]. [obs]
    receives the workers' [plan] and [run] spans and merged registries.
    [progress] is called, serialised, with a line per measured cell. *)

(** {1 Sections} *)

type section
(** A figure as data: its cells and how its table renders from them. *)

val suite_section : ?seeds:int list -> string -> (suite -> Table.t) -> section
(** [suite_section name table] renders [table] (e.g. {!fig13}) over the
    suite of all 11 workloads at [seeds] (default [[2]]). *)

val fig12 : section
(** Fig. 12: omnetpp execution time across affinity distances 2^3 ..
    2^17, with the jemalloc baseline. *)

val sec51_baseline : section
(** §5.1's baseline-choice claim: jemalloc vs ptmalloc2 L1D misses
    (jemalloc reduced misses by as much as 32%). *)

val overhead_control : section
(** §5.2's control: BOLT-instrumented binaries running {e without} the
    specialised allocator — instrumentation overhead should be noise. *)

val ablation_grouping : section
(** Ablation backing the §4.2 claim: Figure 6's grouping vs modularity,
    HCS and threshold-component clustering, each swapped into the full
    pipeline and measured end to end. *)

val ablation_packing : section
(** Ablation: hot-data-streams with identical co-allocation sets merged
    before set packing (repairing the weight scattering §5.2 identifies)
    vs the stream-faithful default. *)

val ablation_identification : section
(** The identification-granularity ablation (§2.2.3 / §3): HALO's grouping
    with runtime identification by immediate call site, by Calder's XOR of
    the last four sites, and by full-context selectors. Isolates the
    paper's full-context contribution. *)

val ablation_backend : section
(** Extension (§6 future work): grouped pools backed by sharded free
    lists instead of pure bump allocation — fragmentation at peak and the
    locality cost/benefit, side by side. *)

val ablation_sampling : section
(** Extension: the profiling speed/accuracy trade-off the paper declined
    (§4.1 applies no sampling). Plans derived from sampled profiles are
    measured end to end at several sampling periods. *)

val drift_study : section
(** Extension (multi-tenant traffic): the plan-staleness drift study —
    {!Traffic_study} at reduced scale (3 drifts x 3 cadences over 4
    epochs), reporting when re-profiling cadence beats a stale plan. It
    measures no cell; the study fans out over [jobs] itself.
    [halo traffic study] exposes the full-size sweep. *)

val all : section list
(** Every section in paper order — the body of [halo_cli figures all]. *)

val print :
  ?jobs:int -> ?obs:Obs.t -> ?plan_source:Pipeline.plan_source -> section list -> unit
(** Run the union of the sections' cells with {!run_cells}, then render
    each section's table in order, each under a [section] span, and
    print the tables separated by blank lines. A line per measured cell
    goes to stderr. *)
