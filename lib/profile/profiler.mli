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

(** {1 The front end}

    How a planner observes a program: the interpreter hooks that turn a
    run into allocation contexts, tracked heap objects and macro
    accesses. {!profile} feeds them to the affinity queue, and the
    hot-data-streams comparator feeds the same stream to SEQUITUR, so
    the two techniques see one abstract trace. *)

type front_end
(** One run's interned contexts and heap model. *)

val front_end : max_tracked_size:int -> unit -> front_end
(** An empty front end that tracks allocations of at most
    [max_tracked_size] bytes. *)

val hooks :
  front_end ->
  on_track:(Heap_model.obj -> Ir.site -> unit) ->
  on_macro:(Heap_model.obj -> int -> unit) ->
  Interp.hooks
(** The hooks to run one program under. An allocation of at most the
    tracking bound is interned to its context (memoised on the physical
    identity of the interpreter's context array), tracked in the heap
    model and handed to [on_track] with its immediate call site; a
    realloc is a free of the old object plus an allocation. A load or
    store that hits a tracked object is a macro access, handed to
    [on_macro] with its size, unless it repeats the last object found:
    a repeat skips the heap lookup and is dropped (one with a
    non-positive size still goes on, for {!Affinity_queue.add} to
    reject). Call it once per front end. *)

val profile : ?obs:Obs.t -> ?helper:bool -> ?config:config -> Ir.program -> result
(** Profile one complete run of the program. [obs] opens the [profile] and
    [affinity-graph] spans, threads telemetry into the interpreter, and
    samples the [profile.affinity_queue.depth] histogram (every 64 macro
    accesses) plus a trace series point every 4096; omitted, the profiling
    hooks are the uninstrumented seed hooks. Every invocation bumps the
    [profile.runs] counter (when [obs] is given) — the plan cache's
    zero-reprofiling guarantee is asserted against it. Raises
    [Invalid_argument] when [sample_period < 1] or [affinity_distance <= 0],
    before it counts the run or builds anything.

    The program runs under the {!front_end}'s {!hooks} at [seed], with
    [max_tracked_size] as its tracking bound; with [sample_period = 1]
    and no [obs] the front end's access hook is the interpreter's.
    When {!Par}'s core budget has a spare core, the affinity queue and
    affinity graph run on a helper domain ({!Helper_stream}): the calling
    domain interprets and runs the front end, and passes the helper only
    its macro accesses plus, with [obs], the
    points at which the helper samples the queue's depth into its own
    context on its own track. Closing that stream observes
    [profile.stream.producer_wait_s] and
    [profile.stream.consumer_idle_s]. The result is the same either way;
    [~helper:true] forces a helper and [~helper:false] forbids one, as
    {!Helper_stream.run}'s [helper] does. *)
