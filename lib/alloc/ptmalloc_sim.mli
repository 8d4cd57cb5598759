(** Simulated ptmalloc2 (glibc malloc).

    §5.1 justifies the jemalloc baseline by noting that jemalloc universally
    outperformed glibc 2.27's ptmalloc2, reducing L1 data-cache misses by as
    much as 32%. To reproduce that comparison the placement-relevant parts
    of ptmalloc2 are modelled:

    - per-block boundary-tag headers (16 bytes) that interleave metadata
      with payloads, diluting useful bytes per cache line;
    - best-fit search over free chunks with splitting, so reused blocks land
      wherever a sufficiently large hole happens to be;
    - immediate coalescing of adjacent free chunks, which erases past
      placement structure;
    - a single contiguous heap ("main arena") grown at the top.

    Fastbins/tcache (which would restore some LIFO locality for tiny sizes)
    are modelled by exact-fit preference in the best-fit search. *)

val create : Vmem.t -> Alloc_iface.t
(** [create vmem] reserves a contiguous demand-paged heap of 256 MiB and
    serves all requests from it. *)
