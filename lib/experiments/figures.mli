(** Regeneration of every table and figure in the paper's evaluation.

    Each table holds the reproduction's measured values next to the paper's reported values
    (exact for Table 1, approximate visual reads for the bar charts; see
    {!Paper_data}). The measurement harness is deterministic, so one run
    per configuration suffices — a suite optionally takes several seeds
    to exercise input variation, reporting medians as §5.1 does.

    Every figure is a {!section}: the cells it measures, as data, and a
    table rendered from their results. {!print} runs the union of the
    sections' cells once each, with every distinct plan, on one domain
    pool. *)

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
(** One task of the grid. A measurement cell is a workload, a kind, a
    seed, a pipeline config and a clusterer; a drift cell is a drift rate
    and a re-profile cadence. Cells are equal when all their fields are. *)

val cell :
  ?seed:int -> ?config:Pipeline.config -> Workload.t -> Runner.kind -> cell
(** [cell w kind] measures [kind] on [w] with measurement seed [seed]
    (default 2) and pipeline config [config] (default
    {!Pipeline.default_config}, so a default-equal config is the same
    cell) under Figure 6's clusterer. *)

val drift_cell : drift:float -> cadence:int -> cell
(** [drift_cell ~drift ~cadence] is one {!Traffic_mix.run} over
    [Schedule.drifting ~ticks_per_phase:2 ~rate:3.0 ~phases:4 ~drift ()]
    (all 11 workloads) at traffic seed 1, under
    {!Traffic_mix.default_config} with [reprofile_every = cadence],
    adopting the grid's stock HALO plans. *)

type results
(** What {!run_cells} returns: each cell's measurement or mix report. *)

val run_cells :
  ?jobs:int ->
  ?obs:Obs.t ->
  ?plan_source:Pipeline.plan_source ->
  ?progress:(string -> unit) ->
  cell list ->
  results
(** [run_cells cells] runs every distinct cell once on one {!Par} pool
    of [jobs] domains (default {!Par.default_jobs}) named [cells], whose
    fan-out is one [cells.map] span. It submits every distinct plan
    first, the largest affinity distance first: the stock HALO plan by
    (workload, config without its allocator, which derivation never
    reads) through {!Runner.plan_halo}, which consults [plan_source]
    (typically the persistent plan cache), and the HDS plan by workload.
    The cells that need no plan follow (jemalloc, ptmalloc, random-N),
    then the planned cells, each awaiting its plan and measuring under
    its own allocator config: a cell under another clusterer derives its
    own with {!Pipeline.derive} from the stock plan's profile, an
    [Ident_window] cell measures under the stock plan, merged packing
    re-packs the HDS plan, and a drift cell adopts the stock HALO plans
    of the workloads its hot sets name ({!Traffic_mix.hot_sets}), so the
    grid plans only those. Every task is an independent
    simulation, so the results are bit-for-bit identical at any [jobs].
    [obs] receives the workers' [plan], [run] and [traffic.run] spans
    and merged registries. [progress] is called, serialised, with a line
    per finished cell. *)

val measurement : results -> cell -> Runner.measurement
(** A measurement cell's result. Raises [Not_found] on a cell that was
    not run and [Invalid_argument] on a drift cell. *)

val mix_report : results -> cell -> Traffic_mix.report
(** A drift cell's report. Raises [Not_found] on a cell that was not run
    and [Invalid_argument] on a measurement cell. *)

(** {1 Sections} *)

type section = {
  name : string;
  cells : cell list;  (** What the table reads. *)
  render : results -> Table.t;
}
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
(** Extension (multi-tenant traffic): the plan-staleness drift study.
    Its cells are the drift cells of drift rates 0, 0.5 and 1 by
    re-profile cadences 0 (never), 1 and 2 ticks. Each row compares its
    [net_cycles] (job cycles plus one cycle per profiled access) with
    the same drift's cadence-0 row, the stale plan, and says whether
    re-profiling wins. *)

val all : section list
(** Every section in paper order — the body of [halo_cli figures all]. *)

val print :
  ?jobs:int -> ?obs:Obs.t -> ?plan_source:Pipeline.plan_source -> section list -> unit
(** Run the union of the sections' cells with {!run_cells}, then render
    each section's table in order, each under a [section] span, and
    print the tables separated by blank lines. A line per finished cell
    goes to stderr. *)
