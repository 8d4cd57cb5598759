(** A trivial bump ("arena") allocator.

    Satisfies every request by advancing a cursor through large slabs mapped
    from {!Vmem}; [free] only validates and accounts (memory is reclaimed
    when the whole arena is dropped). Used as a building block in tests and
    as the simplest possible placement policy: objects are laid out exactly
    in allocation order, regardless of size. *)

val create : Vmem.t -> Alloc_iface.t
(** [create vmem] builds a bump allocator drawing 1 MiB slabs. All blocks
    are aligned to 8 bytes. *)
