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

(** Sparse paged memory for the interpreter's heap image.

    A directory (hashtable of lane key -> flat [int array]) fronted by a
    direct-mapped cache: loads and stores on the hot path are a mask, an
    indexed compare and an array index, even when the access stream
    alternates between distant pages. Each 4 KiB page is split into
    eight 512-cell lanes by the address mod 8, so the 8-aligned accesses
    programs make fill one host array per page. Works over the full
    [int] address range, negative and very large addresses included.

    Semantics match the hashtable it replaces: cells never stored read
    [0]; stored values persist until overwritten (memory is never
    cleared on free — real malloc does not zero). *)
module Mem : sig
  type t

  val create : unit -> t

  val load : t -> Addr.t -> int
  (** O(1); [0] for never-written cells. *)

  val store : t -> Addr.t -> int -> unit
  (** O(1) amortised; creates the cell's lane zero-filled on first touch. *)

  val copy : t -> src:Addr.t -> dst:Addr.t -> len:int -> unit
  (** Realloc's memcpy: copy [len] cells from [src] to [dst], lane-wise
      via [Array.blit]. A 4 KiB source page none of whose cells was ever
      written is skipped, leaving its part of the destination untouched
      (the old per-cell copy skipped absent cells the same way); a written
      one is copied whole, as 0 for the cells never written. Ranges are
      assumed disjoint — the allocator hands realloc a fresh block when it
      moves. *)

  val page_count : t -> int
  (** 4 KiB pages with a cell written so far — for tests and diagnostics. *)
end

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

val load_store_counts : t -> int * int
(** [(loads, stores)] — counts of executed load and store {e events}
    (one per [Load]/[Store] statement retired, regardless of the access
    width in bytes). Tests use them to check the access stream, and the
    benchmark's layer ladder to count interpreter events. *)
