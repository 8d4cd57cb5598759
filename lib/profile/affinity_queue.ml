(* The window is a ring stored as four parallel int arrays (oid, ctx,
   bytes, seq), so recording a macro access writes four ints and
   allocates nothing. The ring capacity is always a power of two, so
   index arithmetic is a mask, not a division.

   The per-traversal double-counting guard is a dense per-oid stamp
   array: [stamp.(oid) = gen] means [oid] was already counted by the
   current traversal, and bumping [gen] clears every mark at once. Oids
   are dense and never reused, so the array is exact — no hashing, no
   probing — and it grows alongside the successor memo below, which is
   indexed the same way.

   Co-allocatability is memoised per (object, context) rather than per
   object pair: the test "did context c allocate strictly between the
   two objects' sequence numbers" only needs c's first allocation
   after the older object's seq, and that successor is immutable once
   it exists (logs append ever-larger seqs). With a handful of contexts
   the memo is a short int row per object — [next_rows.(oid).(c)]:

     -1         not computed yet
     s >= 0     c's first seq after this object's seq (final)
     -(w + 2)   no successor as of allocation watermark w: c had not
                allocated past this object when last probed, so the
                answer is only valid for interval ends <= w and is
                recomputed beyond that.

   Only a memo miss consults c's allocation log, resolved through the
   heap model's per-context array. *)
type t = {
  a : int; (* affinity distance, bytes *)
  heap : Heap_model.t;
  on_affinity : Context.id -> Context.id -> unit;
  mutable r_oid : int array; (* the ring, one array per field *)
  mutable r_ctx : int array;
  mutable r_bytes : int array;
  mutable r_seq : int array;
  mutable mask : int; (* ring capacity - 1 *)
  mutable start : int; (* index of oldest entry *)
  mutable count : int;
  mutable accesses : int;
  mutable stamp : int array; (* oid -> last traversal that counted it *)
  mutable gen : int;
  mutable next_rows : int array array; (* oid -> per-context successor memo *)
}

let no_row = [||] (* shared placeholder for rows not materialised yet *)

let create ~affinity_distance ~heap ~on_affinity () =
  if affinity_distance <= 0 then
    invalid_arg "Affinity_queue.create: affinity distance must be positive";
  {
    a = affinity_distance;
    heap;
    on_affinity;
    r_oid = Array.make 64 0;
    r_ctx = Array.make 64 0;
    r_bytes = Array.make 64 0;
    r_seq = Array.make 64 0;
    mask = 63;
    start = 0;
    count = 0;
    accesses = 0;
    stamp = Array.make 1024 0;
    gen = 0;
    next_rows = Array.make 1024 no_row;
  }

let length t = t.count
let accesses t = t.accesses

(* Make room in the per-oid arrays for [oid]. *)
let reserve_oid t oid =
  let n = Array.length t.stamp in
  if oid >= n then begin
    let cap = max (2 * n) (oid + 1) in
    let stamp = Array.make cap 0 and rows = Array.make cap no_row in
    Array.blit t.stamp 0 stamp 0 n;
    Array.blit t.next_rows 0 rows 0 n;
    t.stamp <- stamp;
    t.next_rows <- rows
  end

let unroll t ring cap =
  let a = Array.make cap 0 in
  for i = 0 to t.count - 1 do
    a.(i) <- ring.((t.start + i) land t.mask)
  done;
  a

let push t ~oid ~ctx ~bytes ~seq =
  if t.count = t.mask + 1 then begin
    let cap = 2 * t.count in
    t.r_oid <- unroll t t.r_oid cap;
    t.r_ctx <- unroll t t.r_ctx cap;
    t.r_bytes <- unroll t t.r_bytes cap;
    t.r_seq <- unroll t t.r_seq cap;
    t.mask <- cap - 1;
    t.start <- 0
  end;
  let i = (t.start + t.count) land t.mask in
  t.r_oid.(i) <- oid;
  t.r_ctx.(i) <- ctx;
  t.r_bytes.(i) <- bytes;
  t.r_seq.(i) <- seq;
  t.count <- t.count + 1

let drop_oldest t n =
  let n = min n t.count in
  t.start <- (t.start + n) land t.mask;
  t.count <- t.count - n

(* [oid]'s successor-memo row, wide enough for [c]. *)
let row_for t oid c =
  let row = t.next_rows.(oid) in
  if c < Array.length row then row
  else begin
    let wider = Array.make (max 8 (max (2 * Array.length row) (c + 1))) (-1) in
    Array.blit row 0 wider 0 (Array.length row);
    t.next_rows.(oid) <- wider;
    wider
  end

(* "Context [c] made no allocation strictly between [w_seq] and [hi]",
   i.e. c's first seq after w_seq is >= hi; [w_oid] is the older
   object. *)
let no_alloc_between t w_oid w_seq c hi =
  let row = row_for t w_oid c in
  let m = row.(c) in
  if m >= 0 then m >= hi
  else if m <> -1 && hi + 2 <= -m then true
  else begin
    let s = Heap_model.log_next (Heap_model.ctx_log t.heap c) ~after:w_seq in
    if s <> max_int then begin
      row.(c) <- s;
      s >= hi
    end
    else begin
      (* No successor yet: sound for interval ends up to the current
         allocation watermark, revisited past it. *)
      let watermark = Heap_model.allocs_total t.heap in
      row.(c) <- -(watermark + 2);
      hi <= watermark
    end
  end

(* Neither context allocated strictly between the older object [w] and
   the newer one's seq [hi]. *)
let clear_between t w_oid w_seq hi u_ctx v_ctx =
  no_alloc_between t w_oid w_seq u_ctx hi
  && (v_ctx = u_ctx || no_alloc_between t w_oid w_seq v_ctx hi)

(* Newest-to-oldest traversal from ring position [i] with [acc] bytes
   accumulated, for the new access [u]. A top-level function of plain
   ints: a local closure would be allocated on every call to [add]. *)
let rec walk t u_oid u_ctx u_seq i acc =
  if i < t.count then begin
    let j = (t.start + t.count - 1 - i) land t.mask in
    let acc = acc + t.r_bytes.(j) in
    if acc >= t.a then
      (* Entries older than this one can never again fall inside the
         window (future accumulated distances only grow), so trim
         them. *)
      drop_oldest t (t.count - i)
    else begin
      let v_oid = t.r_oid.(j) in
      if v_oid <> u_oid && t.stamp.(v_oid) <> t.gen then begin
        t.stamp.(v_oid) <- t.gen;
        let v_ctx = t.r_ctx.(j) and v_seq = t.r_seq.(j) in
        let co_allocatable =
          if u_seq <= v_seq then clear_between t u_oid u_seq v_seq u_ctx v_ctx
          else clear_between t v_oid v_seq u_seq u_ctx v_ctx
        in
        if co_allocatable then t.on_affinity u_ctx v_ctx
      end;
      walk t u_oid u_ctx u_seq (i + 1) acc
    end
  end

let add t (o : Heap_model.obj) ~bytes =
  if bytes <= 0 then invalid_arg "Affinity_queue.add: non-positive access size";
  let oid = o.Heap_model.oid in
  (* Deduplication: a repeat of the immediately preceding object is part of
     the same macro-level access. *)
  if t.count > 0 && t.r_oid.((t.start + t.count - 1) land t.mask) = oid then false
  else begin
    t.accesses <- t.accesses + 1;
    reserve_oid t oid;
    t.gen <- t.gen + 1;
    let ctx = o.Heap_model.ctx and seq = o.Heap_model.seq in
    walk t oid ctx seq 0 0;
    push t ~oid ~ctx ~bytes ~seq;
    true
  end
