(** HALO's specialised group allocator (§4.4, Figure 11).

    Combines the efficiency and contiguity guarantees of bump allocation
    with a chunk-based reuse model:

    - memory is reserved from the (simulated) OS in large demand-paged
      {e slabs} to amortise mmap costs;
    - slabs are carved into group-specific {e chunks}, aligned to the chunk
      size so a region's chunk header is found by masking low address bits;
    - each group bump-allocates from its current chunk with no per-object
      headers, guaranteeing contiguity of consecutive grouped allocations;
    - a chunk header's [live_regions] count is incremented per allocation
      and decremented per free; at zero the chunk is empty and is reused or
      purged, keeping up to [max_spare_chunks] spare chunks resident (early
      jemalloc's behaviour) — or always reused under {!Always_reuse} (the
      omnetpp/xalanc configuration);
    - requests that are not grouped — classifier says no group, or size at
      least the page size / above the max grouped size — are forwarded to
      the next available allocator (the [dlsym] chain in the paper).

    The classifier is a closure so the same allocator body serves both
    HALO proper (selectors over the group-state vector, via
    {!Rewrite.classify}) and the hot-data-streams comparator
    (immediate-call-site lookup). *)

type backend =
  | Bump_only
      (** The paper's allocator: pure bump allocation inside chunks; space
          is reclaimed only when a whole chunk empties. *)
  | Sharded_free_lists
      (** The future-work extension (§6, after mimalloc): freed regions go
          onto per-group, per-size-class free lists and are reused before
          the bump cursor advances, so long-lived chunks stop leaking
          space. Spatial locality is preserved because a group's free list
          only ever holds that group's own regions. *)

type spare_policy =
  | Keep_spare of int
      (** Retain at most N empty chunks resident; purge the rest's pages
          back to the OS (dirty-page purging). The evaluation default is
          [Keep_spare 1]. *)
  | Always_reuse
      (** Empty chunks return to the reuse pool without purging. *)

type config = {
  slab_size : int;  (** Default 64 MiB. *)
  chunk_size : int;  (** Default 1 MiB (§5.1); must be a power of two. *)
  max_grouped_size : int;  (** Default 4 KiB. *)
  spare_policy : spare_policy;
  backend : backend;  (** Default [Bump_only] (the paper's design). *)
  color_groups : bool;
      (** Cache-index-aware chunk colouring (a §4.4-cited direction, after
          Afek et al.): offset each group's first region by a per-group
          stride so different groups' hot prefixes do not all map to cache
          set 0. Off by default (the paper's allocator starts every chunk
          at its header). *)
}

val default_config : config

val config_error : config -> string option
(** [None] when {!create} accepts [config], else the reason it rejects
    it: [chunk_size] must be a power of two of at least 128 bytes (8 KiB
    with [color_groups]) that divides [slab_size]. *)

type t

val create :
  ?config:config ->
  ?obs:Obs.t ->
  ?sample_every:int ->
  classify:(size:int -> int option) ->
  fallback:Alloc_iface.t ->
  Vmem.t ->
  t
(** [classify ~size] decides group membership at allocation time (it runs
    only for requests within the grouped size bound).

    [obs] enables allocator telemetry: counters
    [alloc.grouped_mallocs] / [alloc.fallback_mallocs] /
    [alloc.chunks.carved] / [alloc.chunks.reused] / [alloc.chunks.purged] /
    [alloc.freelist.reuses], the [alloc.chunks.spare] gauge, the
    [alloc.pool.occupancy] histogram, and — every [sample_every]
    (default 256) grouped mallocs — one [alloc.pool.occupancy] trace
    series point per active pool (live regions, bump utilisation) plus an
    [alloc.chunks.spare] point. Handles are resolved once here; without
    [obs] the malloc/free paths match the seed allocator exactly. *)

val iface : t -> Alloc_iface.t
(** The POSIX surface to hand to the interpreter. Its [stats] cover only
    the grouped side; [forwarded] counts requests sent to the fallback. *)

type frag_stats = {
  peak_resident : int;
      (** High-water of allocator-resident bytes in group chunks. *)
  live_at_peak : int;  (** Live grouped bytes at that moment. *)
  frag_bytes : int;  (** [peak_resident - live_at_peak] — Table 1's bytes. *)
  frag_pct : float;  (** [frag_bytes / peak_resident] — Table 1's %. *)
}

val frag_stats : t -> frag_stats
(** Fragmentation behaviour of grouped objects at peak memory usage
    (Table 1). Zeroes if nothing was ever grouped. *)

val grouped_mallocs : t -> int
val chunks_carved : t -> int
(** Chunks ever carved from slabs (excludes reuses). *)

val reuses : t -> int
(** Times an empty chunk was reassigned instead of carving a new one. *)

val freelist_reuses : t -> int
(** Regions served from sharded free lists (always 0 under
    [Bump_only]). *)
