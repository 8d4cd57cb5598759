(** Content-addressed, on-disk plan cache.

    Plans are pure functions of (program structure, pipeline config): the
    cache keys each entry by
    [{!Ir_digest.program} ^ "-" ^ {!Store.plan_config_digest}] and stores
    it as a {!Store} plan artifact under that name — the config and the
    profile, from which a hit re-derives the stock plan — so a warmed
    cache answers every repeat [Pipeline.plan] call without running the
    profiler. Writes go through a temp file plus atomic rename, so
    concurrent domains (the figure suite's worker pool) never observe a
    torn entry; an entry that fails any lookup check reads as a miss and
    is overwritten by the recomputed plan.

    Hits, misses, stores and evictions are counted per cache (thread-safe)
    and on the per-worker [Obs] stream as [store.cache.hits] /
    [store.cache.misses] / [store.cache.stores] / [store.cache.evictions];
    the warmed-cache guarantee is the pair "[store.cache.misses] = 0 and
    [profile.runs] = 0". *)

type t

type stats = { hits : int; misses : int; stores : int; evictions : int }

val create : ?max_entries:int -> string -> t
(** Open (creating directories as needed) a cache rooted at the given
    directory. [max_entries] bounds the entry count: after each store,
    oldest entries (by modification time, ties broken by entry name so
    eviction is deterministic within an mtime second) beyond the bound
    are evicted. Only [<program>-<config>.plan.bin] files are entries;
    any other file in the directory is never read, counted or
    evicted. *)

val dir : t -> string

val stats : t -> stats
(** Counters accumulated by {e this process} since {!create}. *)

val hit_rate : stats -> float
(** Hits over lookups, 0 when no lookups happened. *)

(** {1 Persistence and inspection}

    A long-running daemon accumulates cache traffic that outlives any one
    process; {!save_stats} persists the running totals into the cache
    directory so [halo_cli profile inspect --stats DIR] can render a warm
    cache's history without starting the daemon. *)

val entry_names : t -> string list
(** Base names of the plan artifacts currently in the cache directory,
    sorted — each is [<program>-<config>.plan.bin]. *)

val lifetime_stats : t -> stats
(** {!stats} plus the totals saved in the directory by earlier processes
    (read once at {!create}). *)

val save_stats : t -> unit
(** Atomically write {!lifetime_stats} to [stats.json] inside the cache
    directory (temp file + rename, like plan entries). Best-effort: an
    unwritable directory is ignored. *)

val load_stats : string -> stats option
(** Read a directory's saved [stats.json], if present and well-formed —
    the inspection path; does not require opening the cache. *)

val source : t -> Pipeline.plan_source
(** The cache as a pipeline plan source — pass to [Pipeline.plan],
    [Runner.run], [Figures.run_cells] or the fuzz harness. A lookup
    trusts an entry only when {!Store.read_plan} accepts it — magic,
    version, payload checksum, program and config digests, every record,
    a grouping config derivation accepts — and {!Store.check_sites}
    finds every patch site in the program; anything else is a miss. *)
