(* The window is a doubly linked recency list over oids, newest first,
   plus a running byte total. [mark.(oid)] is the total just before the
   object's newest access was pushed, so that access's accumulated
   distance from the window's newest end is [total - mark.(oid)], and
   the object is inside the window iff that is below [A] (and it was
   pushed at all: [mark >= 0]). Only an object's newest access matters:
   it has the smallest distance, and it is the one a walk over every
   access would count. Oids are dense, never reused and equal to
   sequence numbers, so the per-oid arrays are exact and can be indexed
   by sequence number.

   A macro access to [u] finds its partners one of two ways, whichever
   visits fewer objects:

   - Enumeration. Every partner [w] satisfies [u.prev <= w.seq <=
     u.next] (co-allocatability: [u]'s context allocated nothing
     strictly between them), and no pushed oid exceeds [top]. When that
     interval is shorter than the window's entry count, its oids are
     visited from the newest down, each passing the O(1) window test
     before its object is read; hits are kept in a buffer ordered by
     falling mark and reported after the scan.
   - The recency walk. It visits each distinct object inside the window
     once, newest first, and stops at the first object outside. Marks
     fall along the list, so everything after that object is outside
     too, for good (future distances only grow): the list is cut there,
     and [floor] records the cut object's mark. An object is linked iff
     [mark.(oid) > floor]; a cut object that is pushed again is linked
     afresh, never unlinked through its stale links. Enumeration cuts
     nothing, so the list may run past the window until the next walk.

   Either way pairs come out in falling-mark order, the order a walk
   over every access would first meet the objects.

   [length] counts accesses, not objects: a ring of the push totals of
   the accesses inside the window, trimmed from the oldest as the total
   grows. The ring capacity is a power of two, so index arithmetic is a
   mask.

   Co-allocatability is two compares on the objects' context links:
   neither context allocated strictly between the older object [w] and
   the newer one [n] iff [w.next >= n.seq && n.prev <= w.seq], since
   [w.next] is [w]'s context's first allocation after [w] and [n.prev]
   is [n]'s context's last one before [n]. A step of either search
   reads arrays and fields and calls nothing in another unit. *)
type t = {
  a : int; (* affinity distance, bytes *)
  on_affinity : Context.id -> Context.id -> unit;
  mutable total : int; (* bytes pushed so far *)
  mutable head : int; (* newest object's oid, or -1 *)
  mutable top : int; (* largest oid pushed, or -1 *)
  mutable floor : int; (* mark of the last object cut *)
  mutable objs : Heap_model.obj array; (* oid -> object, once pushed *)
  mutable mark : int array; (* oid -> total before its newest push *)
  mutable next : int array; (* oid -> next older linked oid, or -1 *)
  mutable prev : int array; (* oid -> next newer linked oid, or -1 *)
  mutable hits : int array; (* enumeration's partners, by falling mark *)
  mutable r_mark : int array; (* push totals of the accesses in the window *)
  mutable mask : int; (* ring capacity - 1 *)
  mutable start : int; (* index of oldest entry *)
  mutable count : int;
  mutable accesses : int;
}

let create ~affinity_distance ~heap:(_ : Heap_model.t) ~on_affinity () =
  if affinity_distance <= 0 then
    invalid_arg "Affinity_queue.create: affinity distance must be positive";
  {
    a = affinity_distance;
    on_affinity;
    total = 0;
    head = -1;
    top = -1;
    floor = -1;
    objs = [||];
    mark = [||];
    next = [||];
    prev = [||];
    hits = Array.make 64 0;
    r_mark = Array.make 64 0;
    mask = 63;
    start = 0;
    count = 0;
    accesses = 0;
  }

let length t = t.count
let accesses t = t.accesses

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Make room in the per-oid arrays for [o]. The object array cannot be
   made before an object exists, so its fill is [o]. A new mark of -1
   is at most [floor]: never-pushed objects are not linked. *)
let reserve_oid t (o : Heap_model.obj) =
  let n = Array.length t.mark in
  if o.oid >= n then begin
    let n = Int.max (2 * n) (Int.max 1024 (o.oid + 1)) in
    t.objs <- grow t.objs n o;
    t.mark <- grow t.mark n (-1);
    t.next <- grow t.next n (-1);
    t.prev <- grow t.prev n (-1)
  end

(* Record a push at the current total in the ring, after trimming the
   accesses that have left the window. *)
let push_mark t =
  while t.count > 0 && t.total - t.r_mark.(t.start) >= t.a do
    t.start <- (t.start + 1) land t.mask;
    t.count <- t.count - 1
  done;
  if t.count = t.mask + 1 then begin
    let cap = 2 * t.count in
    let r = Array.make cap 0 in
    for i = 0 to t.count - 1 do
      r.(i) <- t.r_mark.((t.start + i) land t.mask)
    done;
    t.r_mark <- r;
    t.mask <- cap - 1;
    t.start <- 0
  end;
  t.r_mark.((t.start + t.count) land t.mask) <- t.total;
  t.count <- t.count + 1

(* Move [oid] to the head of the list, unlinking it first if it is
   linked. *)
let push_front t oid =
  if t.mark.(oid) > t.floor then begin
    let p = t.prev.(oid) and n = t.next.(oid) in
    if p >= 0 then t.next.(p) <- n else t.head <- n;
    if n >= 0 then t.prev.(n) <- p
  end;
  t.prev.(oid) <- -1;
  t.next.(oid) <- t.head;
  if t.head >= 0 then t.prev.(t.head) <- oid;
  t.head <- oid

(* Neither context allocated strictly between the older object [w] and
   the newer [n]. *)
let[@inline] clear_between (w : Heap_model.obj) (n : Heap_model.obj) =
  w.next >= n.seq && n.prev <= w.seq

(* Newest-to-oldest traversal from linked object [v] for the new access
   [u]. A top-level function: a local closure would be allocated on
   every call to [add]. *)
let rec walk t (u : Heap_model.obj) v =
  if v >= 0 then
    if t.total - t.mark.(v) >= t.a then begin
      (* Cut: [v] and everything older leave the list. *)
      let p = t.prev.(v) in
      if p >= 0 then t.next.(p) <- -1 else t.head <- -1;
      t.floor <- t.mark.(v)
    end
    else begin
      if v <> u.oid then begin
        let w = t.objs.(v) in
        let co_allocatable =
          if u.seq <= w.seq then clear_between u w else clear_between w u
        in
        if co_allocatable then t.on_affinity u.ctx w.ctx
      end;
      walk t u t.next.(v)
    end

(* Partners of [u] among the oids [lo, hi], reported by falling mark.
   The scan runs from the newest oid down, so when objects are accessed
   in allocation order each hit lands at the end of the buffer. *)
let enumerate t (u : Heap_model.obj) lo hi =
  if hi - lo >= Array.length t.hits then t.hits <- Array.make (2 * (hi - lo + 1)) 0;
  let n = ref 0 in
  for s = hi downto lo do
    let m = t.mark.(s) in
    if m >= 0 && t.total - m < t.a && s <> u.oid then begin
      let w = t.objs.(s) in
      let co_allocatable =
        if u.seq <= w.seq then clear_between u w else clear_between w u
      in
      if co_allocatable then begin
        let j = ref !n in
        while !j > 0 && t.mark.(t.hits.(!j - 1)) < m do
          t.hits.(!j) <- t.hits.(!j - 1);
          decr j
        done;
        t.hits.(!j) <- s;
        incr n
      end
    end
  done;
  for i = 0 to !n - 1 do
    t.on_affinity u.ctx t.objs.(t.hits.(i)).ctx
  done

let add t (o : Heap_model.obj) ~bytes =
  if bytes <= 0 then invalid_arg "Affinity_queue.add: non-positive access size";
  (* Deduplication: a repeat of the immediately preceding object is part of
     the same macro-level access. *)
  if t.head = o.oid then false
  else begin
    t.accesses <- t.accesses + 1;
    reserve_oid t o;
    (* Partners lie in [o.prev, o.next], and no oid above [top] was
       pushed: search that interval when it is shorter than the window. *)
    let lo = Int.max o.prev 0 and hi = Int.min o.next t.top in
    if hi - lo < t.count then enumerate t o lo hi else walk t o t.head;
    push_mark t;
    push_front t o.oid;
    (* Searches read [objs] only for pushed oids, so one store (a
       [caml_modify]) per object suffices. *)
    if t.mark.(o.oid) < 0 then t.objs.(o.oid) <- o;
    if o.oid > t.top then t.top <- o.oid;
    t.mark.(o.oid) <- t.total;
    t.total <- t.total + bytes;
    true
  end
