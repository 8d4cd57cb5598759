(** The full memory hierarchy of the paper's testbed.

    §5.1: a 64-bit Xeon W-2195 with 32 KiB per-core L1 data caches,
    1,024 KiB per-core L2 caches, and a 25,344 KiB shared L3 cache.
    Workloads run single-threaded, so one core's private hierarchy plus the
    shared L3 is the whole machine from the program's point of view. *)

(** A single set-associative cache level with true-LRU replacement: the
    code {!access} walks for L1, L2, L3 and the DTLB (a level whose lines
    are 4 KiB pages), and what {!Cache} re-exports to drive one level on
    its own.

    The reproduction's stand-in for the hardware counters used in §5:
    every simulated load/store is pushed through a model of the Xeon
    W-2195's cache hierarchy, and "L1 data-cache misses" in the reproduced
    figures are misses counted here. Physical indexing, inclusive write-
    allocate behaviour and LRU are sufficient: the paper's effect operates
    through line-granularity spatial locality, not replacement-policy
    subtleties. *)
module Level : sig
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
      [addr]. Returns [true] on hit. One call covers one line; callers
      split straddling accesses (see {!Hierarchy.access}). The levels
      inside a hierarchy count misses only. *)

  val name : t -> string
  val line_bytes : t -> int
  val sets : t -> int
  val assoc : t -> int

  val page_sets : t -> int
  (** Sets per page of the level's tag store, a power of two. A level
      of at most 16,384 tags (the L1, the L2 and the DTLB of the modelled
      Xeon) is one page of all its sets, allocated by {!create}. A larger
      one (the L3) has pages of at most 1,024 tags and gets each at the
      first fill that lands in it; a lookup in a page no fill has reached
      misses without allocating. *)

  val hits : t -> int
  val misses : t -> int
  val accesses : t -> int

  val reset_counters : t -> unit
  (** Zero the hit/miss counters without disturbing cache contents — used
      to exclude warm-up phases from measurement, like discarding the
      first trial in §5.1. *)

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
  (** Invalidate every line and zero the counters. A paged level drops
      every page it allocated. *)
end

type config = {
  l1_size : int;
  l1_assoc : int;
  l2_size : int;
  l2_assoc : int;
  l3_size : int;
  l3_assoc : int;
  line_bytes : int;
  tlb_entries : int;
  tlb_assoc : int;
  prefetch : bool;
      (** Next-line prefetcher at the L1 (an extension beyond the paper's
          setup, off by default): every demand L1 miss also fills the
          following line into L1 and L2 without charging a miss.
          Sequentially laid-out pools benefit disproportionately — the
          "prefetching failures" effect §2.1 attributes to scattered
          heaps. *)
}

val xeon_w2195 : config
(** The evaluation machine: L1D 32 KiB/8-way, L2 1 MiB/16-way,
    L3 25,344 KiB/11-way, 64 B lines, 64-entry 4-way DTLB. *)

type counters = {
  accesses : int;  (** Program loads/stores (not line-split sub-accesses). *)
  l1_misses : int;
  l2_misses : int;
  l3_misses : int;  (** Equivalently: DRAM accesses. *)
  tlb_misses : int;
  prefetches : int;  (** Prefetch fills issued (0 with [prefetch = false]). *)
}

type t

val create : ?config:config -> ?obs:Obs.t -> ?sample_every:int -> unit -> t
(** [obs] enables the per-level miss streams: every [sample_every]
    (default 4096) program accesses, one ["ph":"C"] counter trace event
    per level ([cache.l1.misses], [cache.l2.misses], [cache.l3.misses],
    [cache.tlb.misses]) carrying the {e cumulative} miss count and the
    access index — differentiate to recover windowed miss rates. Without
    [obs] the access path is the uninstrumented seed code. *)

val access : t -> Addr.t -> int -> unit
(** [access t addr size] simulates one program-level load or store of
    [size] bytes at [addr]. Accesses that straddle line boundaries touch
    every covered line (and page, for the TLB). Misses propagate down the
    hierarchy: an L1 miss probes L2, an L2 miss probes L3. Raises
    [Invalid_argument] if [size <= 0] or if the access would wrap past
    [max_int] ([addr + size - 1 > max_int]); neither is counted. *)

val counters : t -> counters

val counters_to_json : counters -> Json.t
(** The six fields as one object, in declaration order. *)

val reset_counters : t -> unit
val config : t -> config

(** Feed a hierarchy from another domain.

    The hierarchy only consumes the access stream: nothing it computes
    flows back into the program. A stream lets the interpreter hand its
    accesses to a helper domain that runs {!access} on a spare core, while
    the calling domain keeps interpreting. It is a client of
    {!Helper_stream}: each access is one [(addr, size)] pair written
    straight into that stream's ring, {!chunk_pairs} to a chunk, and the
    helper walks each chunk through {!access} in push order (the walk
    lives in this unit, so {!access} is a direct call). The counters
    after a {!drain} are those the same {!access} calls would give.

    Whether a stream gets a helper is decided once, when {!run} opens
    it, from {!Par}'s core budget. Without one, {!hook} is the direct
    [Hierarchy.access] closure and {!drain} does nothing. *)
module Stream : sig
  type hierarchy := t
  type t

  val chunk_pairs : int
  (** Accesses per chunk (4096). *)

  val run : ?helper:bool -> hierarchy -> (t -> 'a) -> 'a
  (** [run h f] applies [f] to a stream into [h], then closes the stream
      however [f] returns.

      The stream claims a spare core ({!Par.claim_spare}) and, if it gets
      one, spawns a helper that owns [h] until the stream closes: until
      then read [h]'s counters only after a {!drain}, and call nothing
      else on it. [~helper:true] spawns one whether or not a core is
      spare (holding one in the budget all the same), and [~helper:false]
      never does; tests use them to hold the two paths to each other on
      any machine. If [h] was created with [obs], the helper emits its
      sampled [cache.*] miss streams into an {!Obs.child} on its own
      track.

      Closing is {!Helper_stream.run}'s: it joins the helper, returns
      its core, and with [obs] records [cache.stream.producer_wait_s]
      and [cache.stream.consumer_idle_s]. Accesses pushed since the last
      {!drain} are dropped. A closed helper stream is spent: {!drain},
      and a push that fills a chunk, raise [Invalid_argument]. *)

  val hook : t -> Addr.t -> int -> bool -> unit
  (** [hook s] is an interpreter [on_access] hook: [hook s addr size
      is_write] is {!access} [h addr size], perhaps later and on the
      helper. It raises {!access}'s [Invalid_argument] for [size <= 0] or
      an access wrapping past [max_int] before anything is queued. *)

  val drain : t -> unit
  (** Return once every access pushed so far has been simulated.
      Re-raises, with its backtrace, an exception the helper caught since
      the last drain (the helper skips the rest of the stream until
      then). *)
end
