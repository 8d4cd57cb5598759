(** The workload interpreter — target machine, Pin, and BOLT in one.

    Runs a finalized {!Ir.program} against a pluggable allocator, playing
    three roles from the paper's pipeline:

    - {b the machine}: executes statements, maintains heap contents, counts
      retired instructions for the timing model;
    - {b the Pin instrumentation tool} (§4.1): optional {!hooks} observe
      every load/store and every allocation event, including the
      allocation's reduced call-stack context from the {!Shadow_stack};
    - {b the BOLT-rewritten binary} (§4.3): [patches] attach a group-state
      bit to chosen call sites; the bit is set on entry to the site's
      dynamic extent and cleared on exit (recursion-safe via a depth
      count), so the {!Exec_env} vector always reflects which instrumented
      sites are live on the call stack.

    Heap contents behave like real (non-zeroing) malloc: memory retains
    stale values across free/reuse, so programs must initialise what they
    read — [calloc]'s zeroing is only honoured for never-written cells. *)

type hooks = {
  on_access : Addr.t -> int -> bool -> unit;
      (** [on_access addr size is_write], for every program load/store. *)
  on_alloc : Addr.t -> int -> Ir.site -> Ir.site array -> unit;
      (** [on_alloc addr size site ctx]: a malloc/calloc completed; [ctx]
          is the reduced context {e including} [site] as its innermost
          element. *)
  on_realloc : Addr.t -> Addr.t -> int -> Ir.site -> Ir.site array -> unit;
      (** [on_realloc old_addr new_addr size site ctx]. *)
  on_free : Addr.t -> unit;
}

val no_hooks : hooks

type t

val create :
  ?seed:int ->
  ?hooks:hooks ->
  ?patches:(Ir.site * int) list ->
  ?env:Exec_env.t ->
  ?memcheck:Vmem.t ->
  ?obs:Obs.t ->
  program:Ir.program ->
  alloc:Alloc_iface.t ->
  unit ->
  t
(** [create ~program ~alloc ()] compiles the program (variables resolved to
    slots, patch bits resolved per site) ready to run. [seed] feeds the
    program's own [Rand] stream (default 1). [patches] maps call sites to
    bit indices in [env]'s group-state vector; sites must exist in the
    program and bits must be within capacity. [obs] enables telemetry:
    [vm.calls] / [vm.allocs] counters and the [vm.shadow_stack.depth]
    histogram. Metric handles are resolved here and the instrumented
    closures compiled only when [obs] is given — omitting it compiles the
    exact uninstrumented interpreter. *)

val run : t -> int
(** Execute [main] (no arguments); returns its return value. Can only be
    called once per [t]. Raises {!Interp_error.Error} for simulated
    program crashes (division/modulo by zero, bad [Rand] bounds, calloc
    overflow), [Failure] for memory-check violations, and
    {!Alloc_iface.Alloc_error} for allocator misuse. *)

val instructions : t -> int
(** Retired-instruction count: 1 per simple statement, [n] per
    [Compute n], a fixed surcharge per allocator call, 2 + arity per
    call. *)

val env : t -> Exec_env.t

val load_store_counts : t -> int * int
(** [(loads, stores)] — counts of executed load and store {e events}
    (one per [Load]/[Store] statement retired, regardless of the access
    width in bytes). Tests use them to check the access stream, and the
    benchmark's layer ladder to count interpreter events. *)
