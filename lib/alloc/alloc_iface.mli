(** The POSIX.1 memory-management surface that simulated programs call.

    Every allocator in the reproduction — the jemalloc/ptmalloc baselines,
    HALO's specialised group allocator, the hot-data-streams comparator's
    allocator, and the Figure 15 random-pool allocator — implements this
    record-of-closures interface. The workload VM dispatches its
    [malloc]/[calloc]/[realloc]/[free] intrinsics through whichever
    implementation the experiment wires in, exactly as the real HALO
    interposes on the target binary's allocation routines. *)

type stats = {
  mallocs : int;  (** Successful allocation requests served. *)
  frees : int;  (** Successful frees. *)
  live_bytes : int;  (** Requested bytes currently allocated. *)
  peak_live_bytes : int;  (** High-water mark of [live_bytes]. *)
  forwarded : int;
      (** Requests forwarded to a fallback allocator (specialised allocators
          only; 0 for self-contained ones). *)
}

type t = {
  name : string;
  malloc : int -> Addr.t;
      (** Returns the address of a block of at least the requested size,
          aligned to at least 8 bytes (§4.4). A request of 0 bytes returns a
          unique non-null address. *)
  free : Addr.t -> unit;
      (** Frees a block previously returned by [malloc]/[realloc] of this
          allocator. Freeing [Addr.null] is a no-op. Raises {!Alloc_error}
          on double free or foreign pointers (the simulated heap
          corruption). *)
  realloc : Addr.t -> int -> Addr.t;
      (** Standard realloc semantics; [realloc null n] behaves as
          [malloc n]. Content migration is handled by the VM's object store,
          so allocators only manage placement. *)
  usable_size : Addr.t -> int option;
      (** [malloc_usable_size]: bytes actually reserved for a live block, or
          [None] for an unknown pointer. *)
  stats : unit -> stats;
}

exception
  Alloc_error of {
    allocator : string;  (** The reporting allocator's [name]. *)
    op : string;  (** ["malloc"], ["free"] or ["realloc"]. *)
    addr : Addr.t option;  (** The offending address, when there is one. *)
    detail : string;
  }
(** Simulated heap corruption or allocator-invariant violation: double or
    foreign free, corrupt chunk metadata, heap exhaustion, an allocator
    returning overlapping blocks. Carries enough structure for the fuzz
    oracle and tests to assert on the failing allocator and operation
    rather than pattern-matching message strings. A printer is registered,
    so [Printexc.to_string] renders
    ["Alloc_error(jemalloc-sim.free at 0xdead0008: ...)"]. *)

val alloc_error : allocator:string -> op:string -> ?addr:Addr.t -> string -> 'a
(** Raise {!Alloc_error} — the shared raise helper for allocator
    implementations. *)

module Live_table : sig
  (** Bookkeeping shared by allocator implementations: tracks live blocks
      (requested and reserved sizes), validates frees, and maintains the
      statistics counters. *)

  type table

  val create : name:string -> unit -> table
  (** [name] is the owning allocator's name, reported in every
      {!Alloc_error} this table raises. *)

  val on_malloc : table -> Addr.t -> requested:int -> reserved:int -> unit
  (** Record a new live block. Raises {!Alloc_error} if the address is
      already live (an allocator returned overlapping blocks) or null. *)

  val on_free : table -> Addr.t -> int * int
  (** Remove a live block, returning [(requested, reserved)].
      Raises {!Alloc_error} for unknown addresses (double/foreign free). *)

  val find : table -> Addr.t -> (int * int) option
  (** [(requested, reserved)] for a live block. *)

  val count_forwarded : table -> unit

  val stats : table -> stats
end

val default_realloc : t Lazy.t -> (Addr.t -> int option) -> Addr.t -> int -> Addr.t
(** [default_realloc self requested_size old n] implements realloc as
    malloc-new/free-old on top of an allocator's own [malloc]/[free],
    keeping the block in place when the new request still fits the reserved
    size. [requested_size] must return the {e reserved} size of a live
    block. *)
