(** A data TLB model.

    Size-segregated allocators can scatter related objects across pages as
    well as lines, generating TLB misses (§2.1); co-location therefore also
    shows up as fewer page-table walks. Structurally a TLB is a
    set-associative cache of page numbers, so this wraps {!Cache} at page
    granularity. *)

type t

val create : ?entries:int -> ?assoc:int -> ?page_bytes:int -> unit -> t
(** Default: 64 entries, 4-way, 4 KiB pages (Skylake-SP L1 DTLB).
    [Invalid_argument] unless [assoc > 0] divides [entries > 0] and
    [page_bytes] is a power of two of at least 2. *)

val access : t -> Addr.t -> bool
(** Translate the page containing [addr]; [true] on TLB hit. *)

val hits : t -> int
val misses : t -> int
val reset_counters : t -> unit
val page_bytes : t -> int
