(** A single set-associative cache level with true-LRU replacement.

    The reproduction's stand-in for the hardware counters used in §5:
    every simulated load/store is pushed through a model of the Xeon
    W-2195's cache hierarchy, and "L1 data-cache misses" in the reproduced
    figures are misses counted here. Physical indexing, inclusive write-
    allocate behaviour and LRU are sufficient: the paper's effect operates
    through line-granularity spatial locality, not replacement-policy
    subtleties. *)

type t

val create : name:string -> size_bytes:int -> assoc:int -> line_bytes:int -> t
(** [create ~name ~size_bytes ~assoc ~line_bytes]. [size_bytes] must be
    divisible by [assoc * line_bytes] and [line_bytes] a power of two of
    at least 2; otherwise [Invalid_argument].
    When the resulting set count is itself a power of two (every level
    of the modelled Xeon except its 11-way L3), set/tag extraction on
    the per-access path is a precomputed mask and shift; other set
    counts use the exact mod/div formula. *)

val access : t -> Addr.t -> bool
(** [access t addr] looks up (and on miss, fills) the line containing
    [addr]. Returns [true] on hit. One call covers one line; callers split
    straddling accesses (see {!Hierarchy.access}). *)

val name : t -> string
val line_bytes : t -> int
val sets : t -> int
val assoc : t -> int

val hits : t -> int
val misses : t -> int
val accesses : t -> int

val reset_counters : t -> unit
(** Zero the hit/miss counters without disturbing cache contents — used to
    exclude warm-up phases from measurement, like discarding the first trial
    in §5.1. *)

val fill : t -> Addr.t -> unit
(** Insert the line containing [addr] without touching the hit/miss
    counters (prefetch fill). The line becomes most-recently-used; if it
    is already present it only moves to the front of its set. *)

val contains : t -> Addr.t -> bool
(** Probe without side effects (no fill, no counter, no LRU update). *)

val locate : t -> Addr.t -> int * int
(** [(set, tag)] for the line containing [addr] — always
    [(line mod sets, line / sets)], whether {!create} precomputed a mask
    and shift (power-of-two set counts) or not (the 11-way L3's 36,864
    sets); exposed so tests can pin that equivalence. *)

val flush : t -> unit
(** Invalidate every line and zero the counters. *)
