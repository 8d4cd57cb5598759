(** Single-configuration measurement runs (§5.1 Measurement).

    A run executes a workload's [Ref]-scale program on the simulated
    machine under one allocator configuration and reports instruction
    count, cache counters, and modelled execution time. Profile-guided
    configurations (HALO, hot data streams) first run their analysis on
    the [Test]-scale program — with a different input seed than
    measurement, mirroring the paper's test-profile/ref-measure split. *)

type kind =
  | Jemalloc  (** The baseline every comparison is against. *)
  | Ptmalloc  (** glibc-style allocator, for the §5.1 baseline claim. *)
  | Halo
  | Halo_no_alloc
      (** BOLT-instrumented binary without the specialised allocator — the
          instrumentation-overhead control run of §5.2. *)
  | Hds  (** Chilimbi & Shaham hot-data-streams co-allocation. *)
  | Hds_merged_packing
      (** Hds with identical co-allocation sets merged before packing (an
          ablation: repairs the weight-scattering §5.2 criticises). *)
  | Random_pools of int  (** Figure 15's strawman. *)
  | Ident_window of int
      (** Identification-granularity ablation (§2.2.3): HALO's own
          profiling and grouping, but runtime identification by the XOR of
          the last [n] context sites — [Ident_window 1] is immediate-call-
          site identification (MO / hot-data-streams style),
          [Ident_window 4] is Calder et al.'s four-return-address name. *)

val kind_name : kind -> string

type halo_details = {
  groups : int;
  monitored_sites : int;
  graph_nodes : int;
  frag : Group_alloc.frag_stats;
  grouped_mallocs : int;
  chunks_carved : int;
  chunk_reuses : int;
}

type hds_details = {
  pools : int;
  stream_count : int;
  selected_streams : int;
  trace_length : int;
  hds_coverage : float;
}

type measurement = {
  workload : string;
  kind : kind;
  instructions : int;
  counters : Hierarchy.counters;
  cycles : float;
  seconds : float;
  alloc_stats : Alloc_iface.stats;
  halo : halo_details option;
  hds : hds_details option;
}

val run :
  ?obs:Obs.t ->
  ?seed:int ->
  ?pipeline_config:Pipeline.config ->
  ?group_fn:(Affinity_graph.t -> Grouping.params -> Grouping.t) ->
  ?plan_source:Pipeline.plan_source ->
  Workload.t ->
  kind ->
  measurement
(** [run w kind] measures one configuration. [seed] (default 2) seeds the
    measurement input; profiling always uses the pipeline config's seed
    (default 1). [pipeline_config] overrides HALO's pipeline parameters
    (the Figure 12 sweep varies the affinity distance through it);
    workload-specific overrides from the registry are applied on top.
    [group_fn] swaps the clustering algorithm (grouping ablation; HALO
    kinds only). [plan_source] supplies ready-made plans to the HALO kinds
    (the persistent store's plan cache, or a decoded artifact via
    [Pipeline.constant_source]); other kinds ignore it.

    [obs] records the full telemetry of the run under a root [run] span:
    for HALO kinds the span tree covers all seven pipeline stages
    ([profile], [affinity-graph], [grouping], [identification], [rewrite],
    [allocator-synthesis], [measurement]); baseline kinds record the
    stages they execute (at least [measurement]). Call {!Obs.finish}
    after the run to flush summaries to the trace sink. *)

val to_json : ?baseline:measurement -> measurement -> Json.t
(** The per-run data points the artefact's halo scripts emit (A.6), with
    derived reductions when a baseline is supplied. *)

val speedup_vs : baseline:measurement -> measurement -> float
(** Figure 14's metric. *)

val miss_reduction_vs : baseline:measurement -> measurement -> float
(** Figure 13's metric (L1D misses). *)
