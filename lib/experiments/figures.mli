(** Regeneration of every table and figure in the paper's evaluation.

    Each table holds the reproduction's measured values next to the paper's reported values
    (exact for Table 1, approximate visual reads for the bar charts; see
    {!Paper_data}). The measurement harness is deterministic, so one run
    per configuration suffices; {!trials} measures Figures 13-15 at
    several input seeds and reports medians, as §5.1 does.

    Every figure is a {!section}: the cells it measures, as data, and a
    table rendered from their results. {!print} runs the union of the
    sections' cells once each, with every distinct plan, on one domain
    pool. *)

val suite_kinds : Runner.kind list
(** The four configurations Figures 13-15 measure: jemalloc, HALO, HDS
    and the random 4-pool strawman. *)

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

val fig13 : section
(** Fig. 13: L1 D-cache miss reduction, HDS and HALO vs jemalloc. *)

val fig14 : section
(** Fig. 14: speedup, HDS and HALO vs jemalloc. *)

val fig15 : section
(** Fig. 15: speedup of the random 4-pool allocator vs jemalloc. *)

val trials : section list
(** Figures 13-15 over input seeds 2, 5, 8, 11 and 14, each value the
    median with \[p25, p75\] error bars, as §5.1 presents them. *)

val tab1 : section
(** Table 1: fragmentation of grouped objects at peak usage under HALO. *)

val hds_diagnostics : section
(** The §5.2 roms analysis: candidate stream counts vs affinity graph
    sizes per benchmark (paper: >150,000 streams vs 31 nodes). *)

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
