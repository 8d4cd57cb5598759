(* The level lives in this unit so that the per-access walk makes no call
   into another one: dune's dev profile compiles with -opaque. *)
module Level = struct
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
    (* The tag store, in pages of [page_mask + 1] whole sets: set [s]
       holds its ways at pages.(s lsr page_bits) from
       [(s land page_mask) * assoc], in recency order: its most recently
       used line in way 0, invalid ways at the tail. Tags come from [lsr]
       with [line_bits >= 1], so they are never negative and [-1] marks
       an invalid way. A page no fill has landed in since {!create} or
       the last {!flush} is [blank], read-only and all [-1], so a lookup
       there misses and allocates nothing; the lookup that fills it first
       gives it an array of its own. *)
    page_bits : int;
    page_mask : int;
    pages : int array array;
    blank : int array;
    (* A level of one page owns it from {!create} on and keeps it here too
       ([[||]] otherwise). If its set count is a power of two (the L1, the
       L2 and the DTLB), [flat_mask] is its [set_mask] and a lookup reads
       [tags] with no page index and no call; [-1] sends every other
       level's lookups through [pages]. *)
    tags : int array;
    flat_mask : int;
    (* Line number of the last access or fill, [-1] before one or after a
       flush. Nothing has touched the level since, so that line is still
       in way 0 of its set and repeating it is a hit that changes
       nothing. *)
    mutable last_line : int;
    (* Counted by {!access} only: the hierarchy reports misses alone. *)
    mutable hits : int;
    mutable misses : int;
  }

  let invalid = -1

  (* A level of at most [flat_words] tags is one page: the L1, the L2 and
     the DTLB, the levels most lookups reach. A larger one, the L3, is
     paged: a page holds as many whole sets as fit in [page_words] tags,
     a power of two of them (64 of the L3's 11-way sets), and every paged
     level whose sets fit in a page shares this blank page. *)
  let flat_words = 16384
  let page_words = 1024
  let shared_blank = Array.make page_words invalid

  let create ~name ~size_bytes ~assoc ~line_bytes =
    if assoc <= 0 then invalid_arg "Cache.create: non-positive associativity";
    if line_bytes < 2 || not (Addr.is_power_of_two line_bytes) then
      invalid_arg "Cache.create: line size must be a power of two >= 2";
    if size_bytes mod (assoc * line_bytes) <> 0 then
      invalid_arg "Cache.create: size not divisible by assoc * line";
    let sets = size_bytes / (assoc * line_bytes) in
    if sets <= 0 then invalid_arg "Cache.create: zero sets";
    let pow2 = Addr.is_power_of_two sets in
    let page_bits =
      if sets * assoc <= flat_words then
        let rec cover b = if 1 lsl b < sets then cover (b + 1) else b in
        cover 0
      else
        (* The most sets [page_words] tags hold, one if a set is longer. *)
        let rec fit b = if b > 0 && assoc lsl b > page_words then fit (b - 1) else b in
        fit (Addr.log2 page_words)
    in
    let npages = ((sets - 1) lsr page_bits) + 1 in
    let blank =
      if npages = 1 then [||]
      else if assoc lsl page_bits <= page_words then shared_blank
      else Array.make assoc invalid
    in
    let tags = if npages = 1 then Array.make (sets * assoc) invalid else [||] in
    {
      name;
      line_bytes;
      line_bits = Addr.log2 line_bytes;
      sets;
      set_bits = (if pow2 then Addr.log2 sets else 0);
      set_mask = (if pow2 then sets - 1 else -1);
      assoc;
      page_bits;
      page_mask = (1 lsl page_bits) - 1;
      pages = (if npages = 1 then [| tags |] else Array.make npages blank);
      blank;
      tags;
      flat_mask = (if pow2 && npages = 1 then sets - 1 else -1);
      last_line = invalid;
      hits = 0;
      misses = 0;
    }

  let[@inline] set_of t line = if t.set_mask >= 0 then line land t.set_mask else line mod t.sets
  let[@inline] tag_of t line = if t.set_mask >= 0 then line lsr t.set_bits else line / t.sets

  (* The way in [base, stop) holding [tag], or -1. *)
  let rec find (tags : int array) (tag : int) w stop =
    if w = stop then -1 else if Array.unsafe_get tags w = tag then w else find tags tag (w + 1) stop

  (* Move [tag] to the front of the set whose last way is [last], carrying
     each way's old tag one way down from [w], which receives [prev].
     Stops at [tag] (a hit) or at the first invalid way or the last way (a
     miss, which drops that way: an invalid one, else the least recently
     used). *)
  let rec shift (tags : int array) tag prev w last =
    let cur = Array.unsafe_get tags w in
    Array.unsafe_set tags w prev;
    if cur = tag then true
    else if cur = invalid || w = last then false
    else shift tags tag cur (w + 1) last

  (* Make [tag] most recently used in the set at [base] of [tags]; [true]
     if it was there. A hit in way 0 is one compare. *)
  let[@inline] move_to_front (tags : int array) base tag assoc =
    let front = Array.unsafe_get tags base in
    if front = tag then true
    else begin
      Array.unsafe_set tags base tag;
      front <> invalid && assoc > 1 && shift tags tag front (base + 1) (base + assoc - 1)
    end

  (* Give the blank page holding [set] an array of its own. *)
  let own t set =
    let p = set lsr t.page_bits in
    let first = p lsl t.page_bits in
    let page = Array.make ((min t.sets (first + t.page_mask + 1) - first) * t.assoc) invalid in
    t.pages.(p) <- page;
    page

  let touch_paged t line =
    let set = set_of t line in
    let page = Array.unsafe_get t.pages (set lsr t.page_bits) in
    (* A lookup in the blank page misses, and a miss fills. *)
    let page = if page == t.blank then own t set else page in
    move_to_front page ((set land t.page_mask) * t.assoc) (tag_of t line) t.assoc

  (* Look up [line], making it most recently used; [true] on hit. *)
  let[@inline] touch t line =
    t.last_line <- line;
    if t.flat_mask >= 0 then
      move_to_front t.tags ((line land t.flat_mask) * t.assoc) (line lsr t.set_bits) t.assoc
    else touch_paged t line

  (* The hierarchy's lookup: like [access], but counts misses only. *)
  let[@inline] probe t addr =
    let line = addr lsr t.line_bits in
    if line = t.last_line || touch t line then true
    else (t.misses <- t.misses + 1; false)

  let access t addr =
    let hit = probe t addr in
    if hit then t.hits <- t.hits + 1;
    hit

  let locate t addr =
    let line = addr lsr t.line_bits in
    (set_of t line, tag_of t line)

  let contains t addr =
    let set, tag = locate t addr in
    let base = (set land t.page_mask) * t.assoc in
    find t.pages.(set lsr t.page_bits) tag base (base + t.assoc) >= 0

  let fill t addr = ignore (touch t (addr lsr t.line_bits) : bool)
  let name t = t.name
  let line_bytes t = t.line_bytes
  let sets t = t.sets
  let assoc t = t.assoc
  let page_sets t = t.page_mask + 1
  let hits t = t.hits
  let misses t = t.misses
  let accesses t = t.hits + t.misses

  let reset_counters t =
    t.hits <- 0;
    t.misses <- 0

  let flush t =
    if Array.length t.pages = 1 then Array.fill t.tags 0 (Array.length t.tags) invalid
    else Array.fill t.pages 0 (Array.length t.pages) t.blank;
    t.last_line <- invalid;
    reset_counters t
end

type config = {
  l1_size : int;
  l1_assoc : int;
  l2_size : int;
  l2_assoc : int;
  l3_size : int;
  l3_assoc : int;
  line_bytes : int;
  tlb_entries : int;
  tlb_assoc : int;
  prefetch : bool;
}

let xeon_w2195 =
  {
    l1_size = 32 * 1024;
    l1_assoc = 8;
    l2_size = 1024 * 1024;
    l2_assoc = 16;
    l3_size = 25344 * 1024;
    l3_assoc = 11;
    line_bytes = 64;
    tlb_entries = 64;
    tlb_assoc = 4;
    prefetch = false;
  }

(* Skylake-SP's 4 KiB pages: a DTLB entry is a level line one page long. *)
let page_bits = 12

type counters = {
  accesses : int;
  l1_misses : int;
  l2_misses : int;
  l3_misses : int;
  tlb_misses : int;
  prefetches : int;
}

(* Miss-stream sampling state; [None] when observability is disabled. *)
type hobs = { mutable o : Obs.t option; sample_every : int; mutable until_sample : int }

type t = {
  cfg : config;
  l1 : Level.t;
  l2 : Level.t;
  l3 : Level.t;
  tlb : Level.t;
  obs : hobs option;
  line_bits : int;
  mutable accesses : int;
  mutable prefetches : int;
}

let create ?(config = xeon_w2195) ?obs ?(sample_every = 4096) () =
  if sample_every < 1 then invalid_arg "Hierarchy.create: sample_every must be >= 1";
  let level name size_bytes assoc line_bytes = Level.create ~name ~size_bytes ~assoc ~line_bytes in
  {
    cfg = config;
    obs =
      Option.map
        (fun o -> { o = Some o; sample_every; until_sample = sample_every })
        obs;
    l1 = level "L1D" config.l1_size config.l1_assoc config.line_bytes;
    l2 = level "L2" config.l2_size config.l2_assoc config.line_bytes;
    l3 = level "L3" config.l3_size config.l3_assoc config.line_bytes;
    tlb = level "dtlb" (config.tlb_entries lsl page_bits) config.tlb_assoc (1 lsl page_bits);
    line_bits = Addr.log2 config.line_bytes;
    accesses = 0;
    prefetches = 0;
  }

(* One cumulative sample per level: the consumer differentiates the series
   to recover per-window miss rates. *)
let emit_samples t ho =
  let point name v =
    Obs.event ho.o ~name
      ~attrs:[ ("accesses", Json.Int t.accesses) ]
      (float_of_int v)
  in
  point "cache.l1.misses" t.l1.misses;
  point "cache.l2.misses" t.l2.misses;
  point "cache.l3.misses" t.l3.misses;
  point "cache.tlb.misses" t.tlb.misses

let access t addr size =
  if size <= 0 then invalid_arg "Hierarchy.access: non-positive size";
  if addr > max_int - (size - 1) then
    invalid_arg "Hierarchy.access: access wraps past max_int";
  t.accesses <- t.accesses + 1;
  (match t.obs with
  | None -> ()
  | Some ho ->
      ho.until_sample <- ho.until_sample - 1;
      if ho.until_sample = 0 then begin
        ho.until_sample <- ho.sample_every;
        emit_samples t ho
      end);
  let fin = addr + size - 1 in
  let lb = t.line_bits and pb = page_bits in
  (* One line and one page, both the last ones L1 and the DTLB looked up:
     two hits that change nothing, the walk below without its loops. *)
  if
    not
      (addr lsr lb = t.l1.last_line
      && fin asr lb = addr asr lb
      && addr lsr pb = t.tlb.last_line
      && fin asr pb = addr asr pb)
  then begin
    (* Walk the covered lines, then pages, in address order with [asr],
       so an access straddling address 0 visits the line below it
       first. *)
    for i = addr asr lb to fin asr lb do
      let a = i lsl lb in
      if not (Level.probe t.l1 a) then begin
        if not (Level.probe t.l2 a) then ignore (Level.probe t.l3 a : bool);
        if t.cfg.prefetch then begin
          (* Next-line prefetch: fill L1/L2 without charging a miss. *)
          let nxt = a + t.cfg.line_bytes in
          if not (Level.contains t.l1 nxt) then begin
            Level.fill t.l1 nxt;
            Level.fill t.l2 nxt;
            t.prefetches <- t.prefetches + 1
          end
        end
      end
    done;
    for i = addr asr pb to fin asr pb do
      ignore (Level.probe t.tlb (i lsl pb) : bool)
    done
  end

let counters t =
  {
    accesses = t.accesses;
    l1_misses = t.l1.misses;
    l2_misses = t.l2.misses;
    l3_misses = t.l3.misses;
    tlb_misses = t.tlb.misses;
    prefetches = t.prefetches;
  }

let counters_to_json (c : counters) =
  Json.Obj
    [
      ("accesses", Json.Int c.accesses);
      ("l1_misses", Json.Int c.l1_misses);
      ("l2_misses", Json.Int c.l2_misses);
      ("l3_misses", Json.Int c.l3_misses);
      ("tlb_misses", Json.Int c.tlb_misses);
      ("prefetches", Json.Int c.prefetches);
    ]

let reset_counters t =
  t.accesses <- 0;
  t.prefetches <- 0;
  List.iter Level.reset_counters [ t.l1; t.l2; t.l3; t.tlb ]

let config t = t.cfg

module Stream = struct
  type hierarchy = t

  let chunk_words = Helper_stream.chunk_words
  let chunk_pairs = chunk_words / 2

  type t = Direct of hierarchy | Helper of Helper_stream.t

  (* The chunk walk, in this unit so [access] is a direct call. *)
  let walk h (buf : int array) off len =
    let i = ref off in
    let stop = off + len in
    while !i < stop do
      access h (Array.unsafe_get buf !i) (Array.unsafe_get buf (!i + 1));
      i := !i + 2
    done

  (* One (addr, size) pair per access, written straight into the ring. *)
  let[@inline] push_helper (s : Helper_stream.t) addr size =
    if size <= 0 then invalid_arg "Hierarchy.access: non-positive size";
    if addr > max_int - (size - 1) then
      invalid_arg "Hierarchy.access: access wraps past max_int";
    let prod = s.prod and buf = s.buf in
    let i = Array.unsafe_get prod Helper_stream.pos in
    Array.unsafe_set buf i addr;
    Array.unsafe_set buf (i + 1) size;
    let i = i + 2 in
    Array.unsafe_set prod Helper_stream.pos i;
    if i land (chunk_words - 1) = 0 then Helper_stream.publish s i

  let hook = function
    | Direct h -> fun addr size _write -> access h addr size
    | Helper s -> fun addr size _write -> push_helper s addr size

  let drain = function Direct _ -> () | Helper s -> Helper_stream.drain s

  let run ?helper h f =
    let parent = Option.bind h.obs (fun ho -> ho.o) in
    (* The helper emits the sampled miss streams into its own context
       until the stream closes. *)
    let consumer child =
      Option.iter (fun ho -> ho.o <- child) h.obs;
      walk h
    in
    Fun.protect
      ~finally:(fun () -> Option.iter (fun ho -> ho.o <- parent) h.obs)
      (fun () ->
        Helper_stream.run ?helper ?obs:parent ~name:"cache.stream" consumer (function
          | None -> f (Direct h)
          | Some s -> f (Helper s)))
end
