(** Object-granularity tracking of live heap data (§4.1).

    The profiling tool instruments all POSIX.1 memory-management calls and
    tracks live data at object granularity: every load/store is resolved to
    the heap object containing its target address, and every object knows
    the context it was allocated from and its position in allocation order
    (its {e sequence number}). Each object also links to its context's
    previous and next allocation, which is all the affinity queue's
    co-allocatability constraint consults.

    A directory of 16-byte granules (one entry per granule an object of at
    most 257 granules touches, so every object up to 4 KiB) indexes every
    object it holds: [on_free] finds such an object in its base granule's
    cell, and [find] resolves an address there first. An ordered map of
    base addresses holds only the objects the directory cannot: the larger
    ones, and every object once two have shared a granule (the map is
    then seeded from the directory). Until then a granule holding no
    object that covers an address answers "none" without the map while
    no larger object is live. *)

type obj = private {
  oid : int;
      (** Unique per tracked allocation (never reused), and equal to [seq]:
          the affinity queue indexes its per-object arrays by it and reads
          an interval of sequence numbers as one of oids. *)
  addr : Addr.t;
  size : int;  (** Requested bytes. *)
  ctx : Context.id;
  seq : int;  (** Position in allocation order, 0-based, across contexts. *)
  prev : int;  (** [ctx]'s previous allocation's [seq], or -1 if none. *)
  mutable next : int;
      (** [ctx]'s next allocation's [seq], [max_int] until it exists: set
          by the [on_alloc] that makes it. *)
}

type t

val create : unit -> t

val on_alloc : t -> addr:Addr.t -> size:int -> ctx:Context.id -> obj
(** Track a new allocation and link it after [ctx]'s previous one. Context
    ids are dense ({!Context.intern}); a negative one raises
    [Invalid_argument] before anything is changed. Live objects must not
    overlap, as under any real allocator. *)

val on_free : t -> addr:Addr.t -> obj option
(** Stop tracking the object based at [addr]; [None] if the address is not
    a tracked object's base (e.g. it was never tracked). Its links stay:
    chronology is immutable. *)

val find : t -> Addr.t -> obj option
(** The live tracked object whose [addr, addr+size) interval contains the
    given address, if any (a 0-byte object covers its base). Allocation-free:
    a hit returns the object's one [Some] cell. *)

val live_count : t -> int
