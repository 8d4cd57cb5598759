(** The profiling stage (§4.1) — the reproduction's Intel Pin tool.

    Runs the target program under full instrumentation, tracking live heap
    data at object granularity and building the affinity graph. As in the
    paper, no sampling or other accuracy/speed trade-off is applied; the
    whole point of profiling on small [test] inputs is to keep this
    affordable.

    The profiling run executes on a private simulated address space with
    the default (jemalloc-like) allocator — placement during profiling is
    irrelevant, since the model is keyed by object identity, not
    address. *)

type config = {
  affinity_distance : int;  (** [A], bytes; the paper selects 128. *)
  max_tracked_size : int;
      (** Maximum grouped-object size (4 KiB in §5.1): larger allocations
          are never group-allocated, so they are not modelled. *)
  node_coverage : float;
      (** Post-run noise filter: keep hottest nodes covering this fraction
          of observed accesses (0.9 in §4.1). *)
  seed : int;  (** Program-input seed for the profiling run. *)
  sample_period : int;
      (** 1 = every access (the paper's choice: "we do not apply any
          optimisations to this process, such as sampling"). N > 1 models
          the speed/accuracy trade-off the paper declined: only every Nth
          heap access enters the affinity queue. The sampling ablation
          bench quantifies what that would have cost. *)
}

val default_config : config
(** [A = 128], 4 KiB max object, 0.9 coverage, seed 1. *)

type result = {
  graph : Affinity_graph.t;  (** Noise-filtered affinity graph. *)
  raw_graph : Affinity_graph.t;  (** Pre-filter graph, for inspection. *)
  contexts : Context.table;
      (** Every allocation context observed (also those filtered from the
          graph) — identification needs them all to count conflicts. *)
  total_accesses : int;  (** Macro-level tracked accesses. *)
  tracked_allocs : int;
  instructions : int;  (** Instructions retired by the profiling run. *)
}

val profile : ?obs:Obs.t -> ?config:config -> Ir.program -> result
(** Profile one complete run of the program. [obs] opens the [profile] and
    [affinity-graph] spans, threads telemetry into the interpreter, and
    samples the [profile.affinity_queue.depth] histogram (every 64 macro
    accesses) plus a trace series point every 4096; omitted, the profiling
    hooks are the uninstrumented seed hooks. Every invocation bumps the
    [profile.runs] counter (when [obs] is given) — the plan cache's
    zero-reprofiling guarantee is asserted against it. *)
