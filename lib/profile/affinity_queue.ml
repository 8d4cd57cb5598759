(* The window is a ring of the accessed objects plus a parallel int array
   of access sizes, so recording a macro access writes a pointer and an
   int and allocates nothing. The ring capacity is a power of two, so
   index arithmetic is a mask, not a division. It starts empty and is
   filled with the first object pushed, as the queue cannot make an
   [obj] of its own.

   The per-traversal double-counting guard is a dense per-oid stamp
   array: [stamp.(oid) = gen] means [oid] was already counted by the
   current traversal, and bumping [gen] clears every mark at once. Oids
   are dense and never reused, so the array is exact — no hashing, no
   probing.

   Co-allocatability is two compares on the objects' context links:
   neither context allocated strictly between the older object [w] and
   the newer one [n] iff [w.next >= n.seq && n.prev <= w.seq], since
   [w.next] is [w]'s context's first allocation after [w] and [n.prev]
   is [n]'s context's last one before [n]. A walk step reads fields and
   calls nothing in another unit. *)
type t = {
  a : int; (* affinity distance, bytes *)
  on_affinity : Context.id -> Context.id -> unit;
  mutable r_obj : Heap_model.obj array; (* the ring *)
  mutable r_bytes : int array;
  mutable mask : int; (* ring capacity - 1 *)
  mutable start : int; (* index of oldest entry *)
  mutable count : int;
  mutable accesses : int;
  mutable stamp : int array; (* oid -> last traversal that counted it *)
  mutable gen : int;
}

let create ~affinity_distance ~heap:(_ : Heap_model.t) ~on_affinity () =
  if affinity_distance <= 0 then
    invalid_arg "Affinity_queue.create: affinity distance must be positive";
  {
    a = affinity_distance;
    on_affinity;
    r_obj = [||];
    r_bytes = [||];
    mask = -1;
    start = 0;
    count = 0;
    accesses = 0;
    stamp = Array.make 1024 0;
    gen = 0;
  }

let length t = t.count
let accesses t = t.accesses

(* Make room in the stamp array for [oid]. *)
let reserve_oid t oid =
  let n = Array.length t.stamp in
  if oid >= n then begin
    let stamp = Array.make (max (2 * n) (oid + 1)) 0 in
    Array.blit t.stamp 0 stamp 0 n;
    t.stamp <- stamp
  end

let unroll t ring cap fill =
  let a = Array.make cap fill in
  for i = 0 to t.count - 1 do
    a.(i) <- ring.((t.start + i) land t.mask)
  done;
  a

let push t (o : Heap_model.obj) bytes =
  if t.count = t.mask + 1 then begin
    let cap = max 64 (2 * t.count) in
    t.r_obj <- unroll t t.r_obj cap o;
    t.r_bytes <- unroll t t.r_bytes cap 0;
    t.mask <- cap - 1;
    t.start <- 0
  end;
  let i = (t.start + t.count) land t.mask in
  t.r_obj.(i) <- o;
  t.r_bytes.(i) <- bytes;
  t.count <- t.count + 1

let drop_oldest t n =
  let n = min n t.count in
  t.start <- (t.start + n) land t.mask;
  t.count <- t.count - n

(* Neither context allocated strictly between the older object [w] and
   the newer [n]. *)
let[@inline] clear_between (w : Heap_model.obj) (n : Heap_model.obj) =
  w.next >= n.seq && n.prev <= w.seq

(* Newest-to-oldest traversal from ring position [i] with [acc] bytes
   accumulated, for the new access [u]. A top-level function: a local
   closure would be allocated on every call to [add]. *)
let rec walk t (u : Heap_model.obj) i acc =
  if i < t.count then begin
    let j = (t.start + t.count - 1 - i) land t.mask in
    let acc = acc + t.r_bytes.(j) in
    if acc >= t.a then
      (* Entries older than this one can never again fall inside the
         window (future accumulated distances only grow), so trim
         them. *)
      drop_oldest t (t.count - i)
    else begin
      let v = t.r_obj.(j) in
      if v.oid <> u.oid && t.stamp.(v.oid) <> t.gen then begin
        t.stamp.(v.oid) <- t.gen;
        let co_allocatable =
          if u.seq <= v.seq then clear_between u v else clear_between v u
        in
        if co_allocatable then t.on_affinity u.ctx v.ctx
      end;
      walk t u (i + 1) acc
    end
  end

let add t (o : Heap_model.obj) ~bytes =
  if bytes <= 0 then invalid_arg "Affinity_queue.add: non-positive access size";
  (* Deduplication: a repeat of the immediately preceding object is part of
     the same macro-level access. *)
  if t.count > 0 && t.r_obj.((t.start + t.count - 1) land t.mask).oid = o.oid then false
  else begin
    t.accesses <- t.accesses + 1;
    reserve_oid t o.oid;
    t.gen <- t.gen + 1;
    walk t o 0 0;
    push t o bytes;
    true
  end
