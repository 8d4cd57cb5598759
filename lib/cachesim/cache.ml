type t = {
  name : string;
  line_bytes : int;
  line_bits : int;
  sets : int;
  (* For power-of-two set counts (every level of the modelled Xeon but
     its 11-way L3), set/tag extraction is a mask and a shift;
     [set_mask = -1] marks the exact mod/div fallback. *)
  set_bits : int;
  set_mask : int;
  assoc : int;
  (* tags.(set * assoc + way), each set in recency order: its most
     recently used line in way 0, invalid ways at the tail. Tags come from
     [lsr] with [line_bits >= 1], so they are never negative and [-1]
     marks an invalid way. *)
  tags : int array;
  (* Line number of the last access or fill, [-1] before one or after a
     flush. Nothing has touched the cache since, so that line is still in
     way 0 of its set and repeating it is a hit that changes nothing. *)
  mutable last_line : int;
  mutable hits : int;
  mutable misses : int;
}

let invalid = -1

let create ~name ~size_bytes ~assoc ~line_bytes =
  if assoc <= 0 then invalid_arg "Cache.create: non-positive associativity";
  if line_bytes < 2 || not (Addr.is_power_of_two line_bytes) then
    invalid_arg "Cache.create: line size must be a power of two >= 2";
  if size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by assoc * line";
  let sets = size_bytes / (assoc * line_bytes) in
  if sets <= 0 then invalid_arg "Cache.create: zero sets";
  let pow2 = Addr.is_power_of_two sets in
  {
    name;
    line_bytes;
    line_bits = Addr.log2 line_bytes;
    sets;
    set_bits = (if pow2 then Addr.log2 sets else 0);
    set_mask = (if pow2 then sets - 1 else -1);
    assoc;
    tags = Array.make (sets * assoc) invalid;
    last_line = invalid;
    hits = 0;
    misses = 0;
  }

let set_of t line = if t.set_mask >= 0 then line land t.set_mask else line mod t.sets
let tag_of t line = if t.set_mask >= 0 then line lsr t.set_bits else line / t.sets

(* The way in [base, stop) holding [tag], or -1. *)
let rec find (tags : int array) (tag : int) w stop =
  if w = stop then -1 else if Array.unsafe_get tags w = tag then w else find tags tag (w + 1) stop

(* Move [tag] to the front of the set whose last way is [last], carrying
   each way's old tag one way down from [w], which receives [prev]. Stops
   at [tag] (a hit) or at the first invalid way or the last way (a miss,
   which drops that way: an invalid one, else the least recently used). *)
let rec shift (tags : int array) tag prev w last =
  let cur = Array.unsafe_get tags w in
  Array.unsafe_set tags w prev;
  if cur = tag then true
  else if cur = invalid || w = last then false
  else shift tags tag cur (w + 1) last

(* Look up [line], making it most recently used; [true] on hit. A hit in
   way 0 is one compare. *)
let touch t line =
  t.last_line <- line;
  let tag = tag_of t line in
  let base = set_of t line * t.assoc in
  let tags = t.tags in
  let front = Array.unsafe_get tags base in
  if front = tag then true
  else begin
    Array.unsafe_set tags base tag;
    front <> invalid && t.assoc > 1 && shift tags tag front (base + 1) (base + t.assoc - 1)
  end

let access t addr =
  let line = addr lsr t.line_bits in
  if line = t.last_line || touch t line then begin
    t.hits <- t.hits + 1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    false
  end

let locate t addr =
  let line = addr lsr t.line_bits in
  (set_of t line, tag_of t line)

let contains t addr =
  let set, tag = locate t addr in
  let base = set * t.assoc in
  find t.tags tag base (base + t.assoc) >= 0

let fill t addr = ignore (touch t (addr lsr t.line_bits) : bool)
let line_bytes t = t.line_bytes
let sets t = t.sets
let assoc t = t.assoc
let hits t = t.hits
let misses t = t.misses
let accesses t = t.hits + t.misses

let reset_counters t =
  t.hits <- 0;
  t.misses <- 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) invalid;
  t.last_line <- invalid;
  reset_counters t

let name t = t.name
