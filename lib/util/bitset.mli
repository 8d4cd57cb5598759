(** Fixed-capacity mutable bit vectors.

    The rewritten program and the specialised allocator communicate through
    a shared "group state" bit vector (§4.3): instrumented call sites set a
    bit on entry and clear it on exit, and the allocator evaluates group
    selectors against the vector at allocation time. This module is that
    vector. *)

type t

val create : int -> t
(** [create n] is an all-zero bitset of capacity [n] bits. *)

val length : t -> int
val set : t -> int -> unit
val clear : t -> int -> unit
val get : t -> int -> bool
val clear_all : t -> unit
val cardinal : t -> int
(** Number of set bits. *)

val to_list : t -> int list
(** Indices of set bits, ascending. *)
