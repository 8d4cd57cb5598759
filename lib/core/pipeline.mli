(** The end-to-end HALO pipeline (Figure 4).

    [Executable -> Profiling -> Affinity graph -> Grouping -> Identification
    -> BOLT rewriting + allocator synthesis -> Optimised executable].

    Profiling runs on a {e test}-scale program; the resulting plan (groups,
    selectors, patch list) is then instantiated against a {e ref}-scale
    program for measurement — mirroring the paper's profile-on-test /
    measure-on-ref methodology (§5.1). The two programs must share
    structure (same sites); workload generators guarantee this by varying
    only input-scale constants. *)

type config = {
  profiler : Profiler.config;
  grouping : Grouping.params;
  min_edge_frac : float;
      (** Noise threshold for edges as a fraction of total observed
          accesses; the effective [min_edge_weight] is the max of this and
          the absolute parameter. Default 1e-4. *)
  allocator : Group_alloc.config;
}

val default_config : config

type plan = {
  config : config;
  profile : Profiler.result;
  grouping : Grouping.t;
  selectors : Identify.selector list;
  rewrite : Rewrite.t;
}

type plan_source = {
  lookup : Obs.t option -> Ir.program -> config -> plan option;
  store : Obs.t option -> Ir.program -> config -> plan -> unit;
}
(** An external supplier of ready-made plans — the seam the persistent
    store's content-addressed plan cache plugs into. {!plan} consults
    [lookup] before profiling and hands freshly computed plans to [store];
    a source that misses everywhere and stores nothing is the identity. *)

val grouping_params : config -> Profiler.result -> Grouping.params
(** The grouping parameters a profile is grouped under: [config]'s, with
    [min_edge_weight] raised to [min_edge_frac] of the profile's
    macro accesses. *)

val derive :
  ?obs:Obs.t ->
  ?config:config ->
  ?group_fn:(Affinity_graph.t -> Grouping.params -> Grouping.t) ->
  Profiler.result ->
  plan
(** The apply phase alone: derive groups, selectors and the rewriting plan
    from an existing profile — recorded in an earlier run, merged across
    runs, or just produced by {!Profiler.profile}. [group_fn] substitutes
    an alternative clustering algorithm (see {!Clustering}) for Figure
    6's — the grouping-ablation hook; default is {!Grouping.group}.
    Either clusters under {!grouping_params}. [obs] records the
    [grouping], [identification] and [rewrite] spans with stage-shape
    attributes. *)

val plan :
  ?obs:Obs.t -> ?source:plan_source -> ?config:config -> Ir.program -> plan
(** The record phase plus {!derive}: profile the (test-scale) program and
    derive the stock plan, under Figure 6's grouping. [source]
    short-circuits both phases when it already holds a plan for this
    program/config pair, and receives the computed plan otherwise. A
    plan under another clusterer is {!derive} with [group_fn] on this
    plan's [profile] and [config]. [obs] adds the profiler's [profile]
    and [affinity-graph] spans ahead of the derive spans. *)

type runtime = {
  env : Exec_env.t;  (** Share between allocator and interpreter. *)
  galloc : Group_alloc.t;
  patches : (Ir.site * int) list;  (** Pass to {!Interp.create}. *)
}

val instantiate :
  ?obs:Obs.t ->
  plan ->
  fallback:Alloc_iface.t ->
  Vmem.t ->
  runtime
(** Synthesise the specialised allocator and runtime environment for a
    measurement run under the plan's allocator config. [obs] records
    the [allocator-synthesis] span and threads allocator telemetry
    (pool occupancy, spare-chunk churn) into the synthesised
    {!Group_alloc}. *)

val graph_dot : plan -> site_label:(Ir.site -> string) -> string
(** Figure 9 analog: the filtered affinity graph with nodes coloured by
    group (grey when ungrouped), as graphviz dot text. *)

val describe : plan -> site_label:(Ir.site -> string) -> string
(** Human-readable summary: groups with member contexts, selectors, and
    monitored sites. *)
