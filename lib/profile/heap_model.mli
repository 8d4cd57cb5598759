(** Object-granularity tracking of live heap data (§4.1).

    The profiling tool instruments all POSIX.1 memory-management calls and
    tracks live data at object granularity: every load/store is resolved to
    the heap object containing its target address, and every object knows
    the context it was allocated from and its position in allocation order
    (its {e sequence number}), which the affinity queue's co-allocatability
    constraint consults. *)

type obj = {
  oid : int;  (** Unique per tracked allocation (never reused). *)
  addr : Addr.t;
  size : int;  (** Requested bytes. *)
  ctx : Context.id;
  seq : int;  (** Position in allocation order, 0-based, across contexts. *)
}

type t

val create : unit -> t

val on_alloc : t -> addr:Addr.t -> size:int -> ctx:Context.id -> obj
(** Track a new allocation. The sequence number advances even for
    allocations a caller later decides not to model, so chronology matches
    the program's real allocation order. Context ids are dense
    ({!Context.intern}); a negative one raises [Invalid_argument]. *)

val on_free : t -> addr:Addr.t -> obj option
(** Stop tracking the object based at [addr]; [None] if the address is not
    a tracked object's base (e.g. it was never tracked). *)

val find : t -> Addr.t -> obj option
(** The live tracked object whose [addr, addr+size) interval contains the
    given address, if any (a 0-byte object covers its base). Allocation-free:
    a hit returns the object's one [Some] cell. *)

val live_count : t -> int
val allocs_total : t -> int

val ctx_allocs_in_range : t -> ctx:Context.id -> lo:int -> hi:int -> bool
(** Whether any allocation from [ctx] has a sequence number strictly
    between [lo] and [hi] — the co-allocatability test's primitive. Counts
    all allocations ever made (freed or not): chronology is immutable. *)

type log
(** A context's allocation-sequence log. A live handle: it reflects
    allocations made after it was obtained. *)

val ctx_log : t -> Context.id -> log
(** The log for [ctx] (created empty if the context has not allocated
    yet): an index into a dense per-context array. The affinity queue
    reads it only when its successor memo misses. Raises
    [Invalid_argument] on a negative context id. *)

val log_allocs_in_range : log -> lo:int -> hi:int -> bool
(** [ctx_allocs_in_range] on a pre-resolved log: a pure binary search,
    no table lookup. *)

val log_next : log -> after:int -> int
(** The smallest sequence number in the log strictly greater than
    [after], or [max_int] if the context has not allocated past [after]
    {e yet} — logs are append-only, so a finite answer is final but
    [max_int] can later become finite. *)
