(** Simulated jemalloc — the paper's baseline allocator.

    The evaluation (§5.1) runs every configuration on top of jemalloc 5.1.0,
    chosen because it universally outperformed glibc's ptmalloc2. This module
    reproduces the parts of jemalloc that determine {e data placement}, which
    is all the cache simulator can see:

    - size-segregated small classes ({!Size_class}), so objects are
      co-located by size class and allocation order (Figure 1);
    - per-class runs carved from large arena chunks, with bump-style fill of
      fresh runs;
    - LIFO reuse of freed regions within a class (recently freed blocks are
      handed back first);
    - dedicated page-aligned mappings for large (> 16 KiB) requests.

    Thread caches, arenas-per-CPU and decay-based purging are deliberately
    out of scope: the paper's workloads are single-threaded and those
    mechanisms do not change placement within a run. *)

val create : Vmem.t -> Alloc_iface.t
(** [create vmem] builds a fresh simulated jemalloc arena drawing 2 MiB
    chunks from [vmem]. *)
