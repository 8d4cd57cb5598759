(** The full memory hierarchy of the paper's testbed.

    §5.1: a 64-bit Xeon W-2195 with 32 KiB per-core L1 data caches,
    1,024 KiB per-core L2 caches, and a 25,344 KiB shared L3 cache.
    Workloads run single-threaded, so one core's private hierarchy plus the
    shared L3 is the whole machine from the program's point of view. *)

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
val reset_counters : t -> unit
val config : t -> config

val pp_counters : Format.formatter -> counters -> unit
