(** Telemetry context: hierarchical spans + metric registry + trace sink.

    The paper's artefact emits per-run JSON data points (A.6); this module
    generalises that into a first-class observability layer for the whole
    pipeline. One {!t} covers one logical run (plan + instantiate +
    measure); every instrumented module takes an [Obs.t option] and treats
    [None] as "observability disabled".

    {b Zero-cost discipline}: every instrumentation hook in the stack
    pattern-matches the option once — on the hot paths (interpreter
    access/call hooks, allocator malloc) the match happens at
    construction/compile time, so the disabled path executes the exact
    seed code with no per-event branch, lookup or allocation (the
    "disabled path allocates nothing" test pins this). A context without
    a trace sink builds no trace event either.

    Thread the {e same} context through the stages you want correlated:
    span ids are unique per context and carry their parent's id, so a
    trace reconstructs the full span tree. Parallel sections
    give each domain a private context on its own {e track} (sharing the
    parent's epoch) and fold it back with {!adopt} + {!Metrics.merge} at
    the join — see {!Par}. *)

type t

(** Where a trace goes. The trace is Chrome trace-event JSON Array
    Format, one compact event per line: line 1 is [\[], every event
    after the first starts with [,], and {!finish} writes the closing
    [\]]. A closed span is a ["ph":"X"] event ([ts]/[dur] in
    microseconds, [tid] = track, [args] holding [span_id], [parent_id],
    instructions, [gc.*] deltas and attributes); {!event} is a
    ["ph":"C"] counter; {!finish} writes one ["halo.metric"] metadata
    event per registered metric ([args]: the metric name plus
    {!Metrics.value_to_json}). [process_name] opens the trace and a
    [thread_name] ([main] for track 0, [domain-N] otherwise) precedes a
    track's first event. The format allows the [\]] to be missing, so a
    killed writer's trace still loads; a channel is flushed whenever a
    root span closes. *)
type target = Channel of out_channel | Buffer of Buffer.t

val create :
  ?clock:(unit -> float) -> ?epoch:float -> ?track:int -> ?trace:target -> unit -> t
(** [clock] defaults to {!Obs_clock.now} — the process-wide monotonicized
    clock, so every context in the process reads one comparable timeline;
    inject a fake for deterministic tests. [epoch] (default: the clock's
    value at creation) is subtracted from every reading; pass the parent's
    {!epoch} when creating a worker context so its span timestamps line up
    with the parent's. [track] (default 0) tags every span recorded here —
    one track per domain in the trace. With [trace], events stream to
    it as they happen (the caller keeps ownership of a channel: close it
    after {!finish}). Without it, spans and metrics are still recorded in
    memory (for {!spans}, {!metrics} and {!export}) but no event is
    built. *)

val child : t -> track:int -> t
(** [child parent ~track] is a context for work on another domain: its
    own registry and spans, on [track], with [parent]'s epoch and clock
    (so that clock must be domain-safe, as the default is). When
    [parent] streams a trace (or is itself such a child), the child
    keeps its {!event}s in memory and {!adopt} writes them there, so a
    helper domain's series reach the parent's trace on the helper's
    track. *)

val enabled : t option -> bool
val metrics : t -> Metrics.registry

val epoch : t -> float
(** The clock value all span timestamps are relative to. *)

val track : t -> int

(** {1 Spans} *)

val span :
  ?attrs:(string * Json.t) list ->
  ?instructions:(unit -> int) ->
  t option ->
  string ->
  (unit -> 'a) ->
  'a
(** [span obs name f] runs [f] inside a span nested under the innermost
    open span. Wall-clock duration is always recorded; [instructions]
    (typically [fun () -> Interp.instructions i]) is sampled at entry and
    exit and the delta recorded — the retired-instruction dimension.
    [Gc.quick_stat] is sampled at entry and exit too, so every closed span
    carries its runtime cost (words allocated, promotions, collections,
    compactions). The span is closed (and written to the trace) even if
    [f] raises. With [obs = None] this is exactly [f ()]. *)

val add_attrs : t option -> (string * Json.t) list -> unit
(** Append attributes to the innermost open span (no-op when none). *)

(** {1 Name-based metric helpers (cold paths)}

    Convenience wrappers that look the metric up by name per call. Hot
    paths should resolve a {!Metrics} handle once instead. *)

val count : t option -> string -> int -> unit
val set_gauge : t option -> string -> float -> unit
val observe : t option -> string -> float -> unit

(** {1 Series events} *)

val event : t option -> name:string -> ?attrs:(string * Json.t) list -> float -> unit
(** Write one ["ph":"C"] counter event ([args]: [value] plus [attrs]) at
    the context's clock to the trace (no-op without one).
    This is the time-series channel — allocator pool occupancy, cache miss
    streams — sampled by the instrumentation site, not aggregated. *)

(** {1 Completion and reporting} *)

val finish : t -> unit
(** Force-close any spans still open; with a trace, write one
    ["halo.metric"] event per registered metric and the closing [\]], and
    flush. Call once, at the end. *)

val export : ?process_name:string -> target -> t -> unit
(** Write a finished context as one complete trace through the same
    encoder the streaming sink uses: [process_name] (default ["halo"]),
    every recorded span in start order, and the metric summaries.
    {!event} counters are not kept in memory, so an exported trace has
    none. *)

type gc_delta = {
  gd_minor_words : float;
  gd_major_words : float;
  gd_promoted_words : float;
  gd_minor_collections : int;
  gd_major_collections : int;
  gd_compactions : int;
}
(** [Gc.quick_stat] deltas across a span: words are cumulative-allocation
    deltas (so [minor + major - promoted] is words newly allocated inside
    the span), the rest are collection-count deltas. *)

type span = private {
  id : int;
  parent : int option;
  name : string;
  depth : int;
  track : int;  (** The owning context's track (domain lane). *)
  start_s : float;  (** Seconds since the context's epoch. *)
  mutable dur_s : float;
  mutable sp_instructions : int option;
  mutable sp_gc : gc_delta option;  (** Present once the span is closed. *)
  mutable attrs : (string * Json.t) list;
  mutable closed : bool;
}

val spans : t -> span list
(** All spans in start order (parents precede children); after {!adopt},
    adopted spans follow the context's own, each group in start order. *)

val adopt : t -> from:t -> unit
(** [adopt t ~from] grafts every span recorded in [from] into [t]: ids
    (and parent ids) are offset so they stay unique within [t], track ids
    are kept, and timestamps are rebased from [from]'s epoch onto [t]'s —
    the adopted spans then appear in {!spans} and the trace, and are written to [t]'s trace if it has one, followed by the
    events a {!child} kept (which [from] then forgets). Metrics are
    {e not} merged (that is {!Metrics.merge}'s job — keep the two
    concerns separable for fleet-style aggregation). Raises
    [Invalid_argument] if [from] still has open spans. *)


