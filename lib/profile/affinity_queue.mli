(** The affinity queue (§4.1, Figure 5).

    A sliding window over the most recent heap accesses, implicitly sized
    by the {e affinity distance} [A] in bytes. When a macro-level access to
    object [u] (allocated from context [x]) is appended, the queue is
    traversed from newest to oldest; an earlier access to object [v]
    (context [y]) is {e affinitive} to the new access iff the access sizes
    of the entries from [v] up to (excluding) [u] sum to less than [A] —
    this matches Figure 5, where with [A = 32] and 4-byte accesses the
    newest element is affinitive to exactly the seven entries to its left.

    Each affinitive pair reported is subject to the paper's four
    constraints:

    - {b deduplication}: consecutive accesses to a single object form one
      macro-level access and do not re-trigger traversal;
    - {b no self-affinity}: [u != v] (an object occupies one location);
    - {b no double counting}: each distinct [v] counts at most once per
      traversal;
    - {b co-allocatability}: no allocation chronologically between [u] and
      [v] may originate from [x] or [y] — otherwise co-locating all of
      [x]/[y]'s objects contiguously at runtime could not have placed [u]
      and [v] together.

    Affinitive pairs are reported through a callback as (x, y) context
    pairs — note x may equal y (distinct objects from one context), which
    produces the loop edges the score function treats specially.

    Entries are keyed by object identity (oids are never reused), so
    accesses to since-freed objects legitimately remain in the window:
    they did happen recently, and co-allocatability is what rules out
    impossible placements.

    Only an object's newest access can decide whether it is counted: it
    is the nearest, and the one a walk over every entry meets first. A
    new access to [u] therefore looks at distinct objects, each tested
    for window membership in O(1) from a running byte total, in one of
    two ways, whichever visits fewer:

    - its {e allocation interval}: co-allocatability means [u]'s context
      allocated nothing strictly between [u] and a partner [w], so
      [u.prev <= w.seq <= u.next]; the oids in that interval (oids are
      sequence numbers), capped at the largest oid pushed, are visited
      when they number fewer than the window's entries;
    - otherwise, the window's distinct objects, newest first.

    A macro access thus visits no more objects than the smaller of its
    interval and the window's entry count. Either way pairs are reported
    by falling recency of the partner's newest access, the order an
    entry-by-entry walk reports them, so the affinity graph is the same.

    The queue may run on another domain than the heap model that links
    the objects. A [next] link set there after the access being added
    holds a sequence number above every object pushed so far, as
    [max_int] does, so neither the interval nor any co-allocatability
    answer depends on whether the queue sees it. *)

type t

val create :
  affinity_distance:int ->
  heap:Heap_model.t ->
  on_affinity:(Context.id -> Context.id -> unit) ->
  unit ->
  t
(** [on_affinity x y] is invoked once per affinitive pair discovered, with
    [x] the newest access's context. [heap] is the model the added objects
    come from; the queue reads only their context links
    ([prev] and [next] of {!Heap_model.obj}). *)

val add : t -> Heap_model.obj -> bytes:int -> bool
(** Record a macro-level access of [bytes] bytes to the given object and
    report all affinitive relationships it forms. Returns [false] when the
    access was deduplicated into the previous macro access (same object),
    [true] when a new macro access was recorded. *)

val length : t -> int
(** Entries currently inside the window: accesses, an object's repeats
    included, the newest one too. *)

val accesses : t -> int
(** Macro-level accesses recorded (post-deduplication). *)
