(** Simulated OS virtual-memory layer.

    This stands in for Linux [mmap]/[munmap]/[madvise] in the reproduction.
    Allocators reserve large demand-paged regions here; pages only become
    {e resident} when first touched, and can be purged (the
    [madvise(MADV_DONTNEED)] analog used by dirty-page purging, §4.4).
    Residency accounting is what backs the fragmentation study (Table 1):
    fragmentation compares live allocated bytes against resident bytes.

    The artefact appendix notes running programs must be able to map at
    least 16 GiB of (overcommitted) virtual memory — cheap here, since a
    mapping is just an interval record. *)

type t

val page_size : int
(** 4096, as on the paper's x86-64 testbed. *)

val create : unit -> t
(** Fresh address space. The first mapping is placed at
    [0x7f00_0000_0000]; allocations grow upward. *)

val mmap : t -> size:int -> align:int -> Addr.t
(** Reserve a mapping of [size] bytes whose base is aligned to [align]
    (a power of two [>= page_size]). The mapping is demand-paged: no page is
    resident until touched. Size is rounded up to a whole number of pages. *)

val munmap : t -> Addr.t -> unit
(** Release a mapping previously returned by {!mmap} (identified by its base
    address). All its resident pages are discarded.
    Raises [Invalid_argument] for an unknown base. *)

val touch : t -> Addr.t -> int -> unit
(** [touch t addr len] simulates the program writing/reading
    [addr .. addr+len-1]: every containing page of a live mapping becomes
    resident. Touching unmapped memory raises [Failure] — the simulated
    segfault, which the test suite uses to catch allocator bugs. *)

val purge : t -> Addr.t -> int -> unit
(** [purge t addr len] returns the containing pages to the OS
    ([madvise(MADV_DONTNEED)]): they stay mapped but become non-resident. *)

val is_mapped : t -> Addr.t -> bool
(** Whether the address falls inside a live mapping. *)

val resident_bytes : t -> int
(** Total bytes of resident pages across all live mappings. *)

val resident_bytes_in : t -> Addr.t -> int -> int
(** Resident bytes within [addr .. addr+len-1]. *)

val mapped_bytes : t -> int
(** Total bytes of live mappings (virtual reservation). *)

val mmap_calls : t -> int
(** Number of {!mmap} system calls made so far (slabbing is meant to
    amortise these; the tests assert it stays small). *)
