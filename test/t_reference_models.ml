(* Differential testing against brute-force reference models.

   The optimised implementations (the recency-list affinity queue, the
   set-associative cache with move-to-front sets, the paged heap image)
   are checked against naive,
   obviously-correct re-implementations of their specifications on random
   inputs. These oracles are written independently from the production
   code, directly off the paper text / textbook definition. The arena
   SEQUITUR is instead held to the record-based implementation it was
   ported from, which must produce the same grammar rule for rule. *)

(* ------------------------------------------------------------------ *)
(* Reference affinity queue: a plain list of all past accesses, walked  *)
(* newest first, applying the four constraints literally.               *)
(* ------------------------------------------------------------------ *)

module Ref_queue = struct
  (* Every allocation is recorded in a growable seq -> ctx array: the
     co-allocatability test scans the open interval literally, and the
     window walk stops once the accumulated size reaches [A] (sizes are
     positive, so nothing older can be inside it). *)
  type entry = { oid : int; ctx : int; bytes : int; seq : int }

  type t = {
    a : int;
    mutable entries : entry list; (* newest first *)
    mutable pairs : (int * int) list;
    mutable accesses : int;
    mutable window : int; (* entries inside the window, the newest included *)
    mutable ctx_of_seq : int array;
    mutable allocs : int;
  }

  let create ~a =
    {
      a;
      entries = [];
      pairs = [];
      accesses = 0;
      window = 0;
      ctx_of_seq = Array.make 16 0;
      allocs = 0;
    }

  let on_alloc t ~seq ~ctx =
    assert (seq = t.allocs);
    if seq = Array.length t.ctx_of_seq then begin
      let bigger = Array.make (2 * seq) 0 in
      Array.blit t.ctx_of_seq 0 bigger 0 seq;
      t.ctx_of_seq <- bigger
    end;
    t.ctx_of_seq.(seq) <- ctx;
    t.allocs <- seq + 1

  let co_allocatable t u v =
    let lo = min u.seq v.seq and hi = max u.seq v.seq in
    let rec clear s =
      s >= hi || ((t.ctx_of_seq.(s) <> u.ctx && t.ctx_of_seq.(s) <> v.ctx) && clear (s + 1))
    in
    clear (lo + 1)

  let add t ~oid ~ctx ~bytes ~seq =
    match t.entries with
    | e :: _ when e.oid = oid -> ()
    | older ->
        t.accesses <- t.accesses + 1;
        let u = { oid; ctx; bytes; seq } in
        let seen = Hashtbl.create 8 in
        let rec walk acc inside = function
          | [] -> inside
          | v :: rest ->
              let acc = acc + v.bytes in
              if acc < t.a then begin
                if v.oid <> u.oid && not (Hashtbl.mem seen v.oid) then begin
                  Hashtbl.replace seen v.oid ();
                  if co_allocatable t u v then t.pairs <- (u.ctx, v.ctx) :: t.pairs
                end;
                walk acc (inside + 1) rest
              end
              else inside
        in
        t.window <- 1 + walk 0 0 older;
        t.entries <- u :: older
end

(* Interleaved allocations, frees and accesses against a reference
   that sees every allocation in order: contexts allocate after objects
   were accessed, so co-allocatability is often asked before a context's
   next allocation exists (the older object's [next] link is still
   [max_int]). Bursts push the object count past 1024, contexts range past
   16 and [A] up to 2^17 bytes, so every growable array in the queue and
   the heap model grows. Accesses of up to 4 KiB against a small [A] cut
   the whole window at once, and objects cut from it come back. After
   every access the queue's [length] must equal the reference's count of
   entries inside the window. *)

type queue_op =
  | Q_alloc of int * int (* burst length, first context *)
  | Q_free of int
  | Q_access of int * int (* object pick, bytes *)

let gen_queue_case =
  QCheck2.Gen.(
    let* a =
      frequency [ (4, int_range 8 128); (1, int_range 129 4096); (1, int_range 4097 131072) ]
    in
    let* nctx = frequency [ (3, int_range 1 8); (1, int_range 17 40) ] in
    let op =
      frequency
        [
          ( 2,
            map2
              (fun n c -> Q_alloc (n, c))
              (frequency [ (6, return 1); (1, int_range 2 400) ])
              (int_range 0 (nctx - 1)) );
          (1, map (fun k -> Q_free k) nat);
          ( 8,
            map2
              (fun k b -> Q_access (k, b))
              nat
              (frequency
                 [ (8, oneofl [ 1; 4; 8; 16; 64 ]); (1, int_range 65 4096) ]) );
        ]
    in
    let* ops = list_size (int_range 1 300) op in
    return (a, nctx, ops))

let print_queue_case (a, nctx, ops) =
  Printf.sprintf "A=%d nctx=%d ops=[%s]" a nctx
    (String.concat "; "
       (List.map
          (function
            | Q_alloc (n, c) -> Printf.sprintf "alloc %dx ctx%d" n c
            | Q_free k -> Printf.sprintf "free %d" k
            | Q_access (k, b) -> Printf.sprintf "access %d %dB" k b)
          ops))

let prop_affinity_queue_matches_reference =
  QCheck2.Test.make
    ~name:"affinity queue: matches the brute-force reference under interleaved allocs and frees"
    ~count:200 ~long_factor:50 ~print:print_queue_case gen_queue_case
    (fun (a, nctx, ops) ->
      let heap = Heap_model.create () in
      let got = ref [] in
      let q =
        Affinity_queue.create ~affinity_distance:a ~heap
          ~on_affinity:(fun x y -> got := (x, y) :: !got)
          ()
      in
      let r = Ref_queue.create ~a in
      let live = ref [||] and next_addr = ref 0x1000 in
      List.for_all
        (function
          | Q_alloc (n, c) ->
              let fresh =
                Array.init n (fun j ->
                    let ctx = (c + (j * 7)) mod nctx in
                    let o = Heap_model.on_alloc heap ~addr:!next_addr ~size:8 ~ctx in
                    next_addr := !next_addr + 16;
                    Ref_queue.on_alloc r ~seq:o.Heap_model.seq ~ctx;
                    o)
              in
              live := Array.append !live fresh;
              true
          | Q_free k ->
              let n = Array.length !live in
              if n > 0 then begin
                let o = !live.(k mod n) in
                ignore (Heap_model.on_free heap ~addr:o.Heap_model.addr : Heap_model.obj option);
                live := Array.of_list (List.filter (fun o' -> o' != o) (Array.to_list !live))
              end;
              true
          | Q_access (k, bytes) ->
              let n = Array.length !live in
              n = 0
              ||
              let o = !live.(k mod n) in
              ignore (Affinity_queue.add q o ~bytes : bool);
              Ref_queue.add r ~oid:o.Heap_model.oid ~ctx:o.Heap_model.ctx ~bytes
                ~seq:o.Heap_model.seq;
              Affinity_queue.length q = r.Ref_queue.window)
        ops
      && !got = r.Ref_queue.pairs
      && Affinity_queue.accesses q = r.Ref_queue.accesses)

(* ------------------------------------------------------------------ *)
(* Reference heap model: a plain list of live objects.                  *)
(* ------------------------------------------------------------------ *)

type heap_op =
  | H_alloc of int * int (* offset into the arena, size *)
  | H_alloc_next of int * int * int (* live pick, gap after its end, size *)
  | H_free of int
  | H_realloc_same of int * int (* live pick, new size at the same base *)
  | H_find of int * int (* live pick, delta from its base *)
  | H_find_end of int * int (* live pick, delta from its end *)
  | H_probe of int (* arena offset *)
  | H_alloc_before of int * int * int (* live pick, gap before its base, size *)
  | H_free_interior of int * int (* live pick, delta from its base *)
  | H_free_past of int (* live pick: one past its end *)
  | H_free_again of int (* freed pick *)
  | H_free_probe of int (* arena offset *)

(* A 128 KiB arena at 0x10000, and two switches per case:

   - [aligned]: every base is 16-aligned, so no two objects share a
     16-byte granule. Otherwise offsets are aligned half the time and
     arbitrary otherwise, and [H_alloc_next] puts an object 0-31 bytes
     past a live one's end ([H_alloc_before] ends one 0-31 bytes before
     a live one's base), so neighbours often share a granule.
   - [large]: sizes reach 8 KiB and include 4097 and 4112/4113, so
     objects straddle the 257-granule directory cap (4 KiB at an
     unaligned base) and large objects come and go among small ones,
     often sharing a granule with a small neighbour. Otherwise no object
     exceeds 4 KiB.

   Aligned cases without large objects are the ones where lookups between
   objects can be answered without the ordered map, and until two
   objects share a granule a small object is freed through its base
   granule's cell. Frees also hit addresses that are no live object's
   base: interior, one past the end, already freed, never tracked.
   Probes reach 16 KiB either side of the arena, into pages that hold no
   object. *)
let heap_arena = 0x20000

let gen_heap_case =
  QCheck2.Gen.(
    let* aligned = bool in
    let* large = bool in
    let size =
      frequency
        [
          (3, int_range 0 64);
          (2, int_range 65 2048);
          (1, int_range 2049 (if large then 8192 else 4096));
          ( 1,
            oneofl
              (if large then [ 0; 1; 1024; 1025; 4095; 4096; 4097; 4112; 4113; 8192 ]
               else [ 0; 1; 1024; 1025; 4095; 4096 ]) );
        ]
    in
    let aligned_offset = map (fun k -> k * 16) (int_range 0 ((heap_arena / 16) - 1)) in
    let offset =
      if aligned then aligned_offset
      else frequency [ (1, aligned_offset); (1, int_range 0 (heap_arena - 1)) ]
    in
    let gap = if aligned then map (fun k -> k * 16) (int_range 0 1) else int_range 0 31 in
    let* ops =
      list_size (int_range 1 400)
        (frequency
           [
             (2, map2 (fun o s -> H_alloc (o, s)) offset size);
             (2, map3 (fun k g s -> H_alloc_next (k, g, s)) nat gap size);
             (2, map (fun k -> H_free k) nat);
             (1, map2 (fun k s -> H_realloc_same (k, s)) nat size);
             (4, map2 (fun k d -> H_find (k, d)) nat (int_range (-20) 8300));
             (2, map2 (fun k d -> H_find_end (k, d)) nat (int_range (-20) 20));
             (2, map (fun o -> H_probe o) (int_range (-16384) (heap_arena + 16384)));
             (1, map3 (fun k g s -> H_alloc_before (k, g, s)) nat gap size);
             (1, map2 (fun k d -> H_free_interior (k, d)) nat (int_range 1 8191));
             (1, map (fun k -> H_free_past k) nat);
             (1, map (fun k -> H_free_again k) nat);
             (1, map (fun o -> H_free_probe o) (int_range (-16384) (heap_arena + 16384)));
           ])
    in
    return (aligned, large, ops))

let print_heap_case (aligned, large, ops) =
  Printf.sprintf "%s%s [%s]"
    (if aligned then "aligned" else "mixed")
    (if large then " large" else "")
    (String.concat "; "
       (List.map
          (function
            | H_alloc (o, s) -> Printf.sprintf "alloc +%d %dB" o s
            | H_alloc_next (k, g, s) -> Printf.sprintf "alloc %d%+d %dB" k g s
            | H_free k -> Printf.sprintf "free %d" k
            | H_realloc_same (k, s) -> Printf.sprintf "realloc %d %dB" k s
            | H_find (k, d) -> Printf.sprintf "find %d%+d" k d
            | H_find_end (k, d) -> Printf.sprintf "find %d end%+d" k d
            | H_probe o -> Printf.sprintf "probe +%d" o
            | H_alloc_before (k, g, s) -> Printf.sprintf "alloc %d-%d %dB" k g s
            | H_free_interior (k, d) -> Printf.sprintf "free %d%+d" k d
            | H_free_past k -> Printf.sprintf "free %d end" k
            | H_free_again k -> Printf.sprintf "free freed %d" k
            | H_free_probe o -> Printf.sprintf "free +%d" o)
          ops))

let prop_heap_model_find_matches_reference =
  QCheck2.Test.make
    ~name:"heap model: find matches a live-object list under alloc, free and re-alloc"
    ~count:200 ~long_factor:50 ~print:print_heap_case gen_heap_case
    (fun (aligned, _, ops) ->
      let base = 0x10000 in
      let h = Heap_model.create () in
      (* Newest first; objects never overlap, a 0-byte one covers its base. *)
      let live = ref [] in
      let span (o : Heap_model.obj) = max o.Heap_model.size 1 in
      let covers a (o : Heap_model.obj) = a >= o.Heap_model.addr && a < o.Heap_model.addr + span o in
      let fits addr size others =
        List.for_all
          (fun (o : Heap_model.obj) ->
            addr + max size 1 <= o.Heap_model.addr || o.Heap_model.addr + span o <= addr)
          others
      in
      let pick k = match !live with [] -> None | l -> Some (List.nth l (k mod List.length l)) in
      let expect a = List.find_opt (covers a) !live in
      let same got want =
        match (got, want) with
        | None, None -> true
        | Some (g : Heap_model.obj), Some w -> g == w
        | _ -> false
      in
      let ctx = ref 0 in
      let alloc addr size =
        incr ctx;
        live := Heap_model.on_alloc h ~addr ~size ~ctx:(!ctx mod 5) :: !live
      in
      let freed = ref [] in
      let free (o : Heap_model.obj) =
        live := List.filter (fun o' -> o' != o) !live;
        freed := o.Heap_model.addr :: !freed;
        same (Heap_model.on_free h ~addr:o.Heap_model.addr) (Some o)
      in
      let find a = same (Heap_model.find h a) (expect a) in
      (* A free at an address that is no live object's base answers
         [None] and leaves every live object in place. *)
      let free_at addr =
        match List.find_opt (fun (o : Heap_model.obj) -> o.Heap_model.addr = addr) !live with
        | Some o -> free o
        | None ->
            Heap_model.on_free h ~addr = None
            && List.for_all (fun (o : Heap_model.obj) -> find o.Heap_model.addr) !live
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | H_alloc (off, size) ->
                if fits (base + off) size !live then alloc (base + off) size;
                true
            | H_alloc_next (k, gap, size) ->
                (match pick k with
                | None -> ()
                | Some o ->
                    let end_ = o.Heap_model.addr + span o in
                    let addr = (if aligned then (end_ + 15) land lnot 15 else end_) + gap in
                    if fits addr size !live then alloc addr size);
                true
            | H_free k -> ( match pick k with None -> true | Some o -> free o)
            | H_realloc_same (k, size) -> (
                match pick k with
                | None -> true
                | Some o ->
                    let addr = o.Heap_model.addr in
                    let freed = free o in
                    if fits addr size !live then alloc addr size;
                    freed)
            | H_find (k, d) -> (
                match pick k with None -> true | Some o -> find (o.Heap_model.addr + d))
            | H_find_end (k, d) -> (
                match pick k with None -> true | Some o -> find (o.Heap_model.addr + span o + d))
            | H_probe off -> find (base + off)
            | H_alloc_before (k, gap, size) ->
                (match pick k with
                | None -> ()
                | Some o ->
                    let end_ = o.Heap_model.addr - gap in
                    let addr = end_ - max size 1 in
                    let addr = if aligned then addr land lnot 15 else addr in
                    if addr >= base && fits addr size !live then alloc addr size);
                true
            | H_free_interior (k, d) -> (
                match pick k with
                | Some o when span o > 1 ->
                    free_at (o.Heap_model.addr + 1 + (d mod (span o - 1)))
                | _ -> true)
            | H_free_past k -> (
                match pick k with None -> true | Some o -> free_at (o.Heap_model.addr + span o))
            | H_free_again k -> (
                match !freed with
                | [] -> true
                | l -> free_at (List.nth l (k mod List.length l)))
            | H_free_probe off -> free_at (base + off)
          in
          ok && Heap_model.live_count h = List.length !live)
        ops)

(* ------------------------------------------------------------------ *)
(* Reference heap image: a plain (addr -> value) table.                 *)
(* ------------------------------------------------------------------ *)

module Ref_mem = struct
  (* [written] holds every 4 KiB page (addresses [4096 p, 4096 p + 4095])
     that a store or a copy has put a cell in. *)
  type t = { cells : (int, int) Hashtbl.t; written : (int, unit) Hashtbl.t }

  let create () = { cells = Hashtbl.create 64; written = Hashtbl.create 16 }
  let page a = a asr 12
  let load t a = Option.value (Hashtbl.find_opt t.cells a) ~default:0

  let store t a v =
    Hashtbl.replace t.cells a v;
    Hashtbl.replace t.written (page a) ()

  (* Realloc's memcpy, cell by cell in address order: a source cell on a
     page nothing was written to is skipped, leaving its destination
     cell as it was; any other cell is copied, as 0 if never written. *)
  let copy t ~src ~dst ~len =
    for i = 0 to len - 1 do
      if Hashtbl.mem t.written (page (src + i)) then store t (dst + i) (load t (src + i))
    done
end

type mem_op =
  | M_store of int * int (* address, value *)
  | M_fill of int * int * int (* first address, cells, stride *)
  | M_load of int
  | M_copy of int * int * int (* src, dst, len *)

(* Five 16 KiB windows: straddling address 0, unaligned, negative, in
   Vmem's range and ending at max_int. Offsets are 8-aligned (the
   interpreter's own accesses) or arbitrary. A copy is clamped so both
   of its ranges stay inside their windows. *)
let mem_window = 16384

let mem_bases =
  [| -8192; 0x10_0000 + 13; -(1 lsl 40) + 5; 0x7f00_0000_0000; max_int - (mem_window - 1) |]

let gen_mem_ops =
  QCheck2.Gen.(
    let addr =
      map2
        (fun b o -> (mem_bases.(b), o))
        (int_range 0 (Array.length mem_bases - 1))
        (frequency
           [ (3, map (fun k -> k * 8) (int_range 0 ((mem_window / 8) - 1)));
             (2, int_range 0 (mem_window - 1)) ])
    in
    let at (b, o) = b + o in
    list_size (int_range 1 60)
      (frequency
         [
           (4, map2 (fun a v -> M_store (at a, v)) addr (int_range (-5) 1000));
           ( 2,
             map3
               (fun (b, o) n stride ->
                 M_fill (b + o, min n ((mem_window - 1 - o) / stride + 1), stride))
               addr (int_range 1 1200) (oneofl [ 1; 8 ]) );
           (3, map (fun a -> M_load (at a)) addr);
           ( 3,
             map3
               (fun (sb, so) (db, dst_o) len ->
                 M_copy (sb + so, db + dst_o, min len (min (mem_window - so) (mem_window - dst_o))))
               addr addr
               (frequency [ (1, return 0); (3, int_range 1 64); (3, int_range 65 9000) ]) );
         ]))

let print_mem_ops ops =
  String.concat "; "
    (List.map
       (function
         | M_store (a, v) -> Printf.sprintf "store %#x %d" a v
         | M_fill (a, n, s) -> Printf.sprintf "fill %#x %dx/%d" a n s
         | M_load a -> Printf.sprintf "load %#x" a
         | M_copy (s, d, n) -> Printf.sprintf "copy %#x -> %#x %d" s d n)
       ops)

let prop_paged_mem_matches_reference =
  QCheck2.Test.make
    ~name:"paged mem: load/store/copy match an (addr -> value) table"
    ~count:200 ~long_factor:10 ~print:print_mem_ops gen_mem_ops
    (fun ops ->
      let m = Paged_mem.create () and r = Ref_mem.create () in
      let store a v =
        Paged_mem.store m a v;
        Ref_mem.store r a v
      in
      List.for_all
        (fun op ->
          (match op with
          | M_store (a, v) -> store a v
          | M_fill (a, n, stride) ->
              for k = 0 to n - 1 do
                store (a + (k * stride)) (a + k)
              done
          | M_load _ -> ()
          | M_copy (src, dst, len) ->
              (* Realloc hands copy disjoint ranges. *)
              if len = 0 || src + (len - 1) < dst || dst + (len - 1) < src then begin
                Paged_mem.copy m ~src ~dst ~len;
                Ref_mem.copy r ~src ~dst ~len
              end);
          (match op with M_load a -> Paged_mem.load m a = Ref_mem.load r a | _ -> true)
          && Paged_mem.page_count m = Hashtbl.length r.Ref_mem.written)
        ops
      && Hashtbl.fold (fun a v ok -> ok && Paged_mem.load m a = v) r.Ref_mem.cells true)

(* ------------------------------------------------------------------ *)
(* Reference cache: sets as explicit MRU-ordered lists.                 *)
(* ------------------------------------------------------------------ *)

module Ref_cache = struct
  type t = { sets : int list array; assoc : int; nsets : int; line : int }

  let create ~sets ~assoc ~line = { sets = Array.make sets []; assoc; nsets = sets; line }

  (* Addresses are unsigned: a negative one lies 2^63 above its value. *)
  let lineno t addr =
    if addr >= 0 then addr / t.line else ((addr - min_int) / t.line) - (min_int / t.line)

  let locate t addr =
    let l = lineno t addr in
    (l mod t.nsets, l / t.nsets)

  let contains t addr =
    let set, tag = locate t addr in
    List.mem tag t.sets.(set)

  let access t addr =
    let set, tag = locate t addr in
    let cur = t.sets.(set) in
    let hit = List.mem tag cur in
    let without = List.filter (fun x -> x <> tag) cur in
    let updated = tag :: without in
    t.sets.(set) <-
      (if List.length updated > t.assoc then
         List.filteri (fun i _ -> i < t.assoc) updated
       else updated);
    hit

  let fill t addr = ignore (access t addr : bool)
  let flush t = Array.fill t.sets 0 t.nsets []
end

let prop_cache_matches_reference =
  QCheck2.Test.make
    ~name:"cache: matches an MRU-list reference on random access streams"
    ~count:200
    QCheck2.Gen.(list_size (int_range 1 400) (int_range 0 8191))
    (fun addrs ->
      let c = Cache.create ~name:"dut" ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
      let r = Ref_cache.create ~sets:8 ~assoc:2 ~line:64 in
      List.for_all (fun a -> Cache.access c a = Ref_cache.access r a) addrs)

(* Replay [ops] on a cache and a reference of one geometry, comparing
   every access's outcome, every probe and the counters after each op,
   then probing each address of [sweep]. [`Repeat] accesses the previous
   access's address again. *)
let ops_match_reference ?(sweep = []) (sets, assoc, line) ops =
  let c = Cache.create ~name:"dut" ~size_bytes:(sets * assoc * line) ~assoc ~line_bytes:line in
  let r = Ref_cache.create ~sets ~assoc ~line in
  let prev = ref 0 and hits = ref 0 and misses = ref 0 in
  let access a =
    prev := a;
    let hit = Ref_cache.access r a in
    if hit then incr hits else incr misses;
    Cache.access c a = hit
  in
  List.for_all
    (fun (op, a) ->
      let same =
        match op with
        | `Access -> access a
        | `Repeat -> access !prev
        | `Fill ->
            Cache.fill c a;
            Ref_cache.fill r a;
            true
        | `Contains -> Cache.contains c a = Ref_cache.contains r a
        | `Flush ->
            Cache.flush c;
            Ref_cache.flush r;
            hits := 0;
            misses := 0;
            true
      in
      same && Cache.hits c = !hits && Cache.misses c = !misses)
    ops
  && List.for_all (fun a -> Cache.contains c a = Ref_cache.contains r a) sweep

(* Accesses, prefetch fills, probes and rare flushes on a 4-set 2-way
   cache: sets often hold invalid ways, and a fill often demotes the line
   the previous access touched. *)
let prop_cache_ops_match_reference =
  QCheck2.Test.make
    ~name:"cache: access/fill/contains/flush match the MRU-list reference"
    ~count:200
    QCheck2.Gen.(
      list_size (int_range 1 400)
        (pair
           (frequency
              [ (6, return `Access); (2, return `Fill); (2, return `Contains); (1, return `Flush) ])
           (int_range 0 2047)))
    (ops_match_reference (4, 2, 64))

(* The geometries the product runs, at set counts a short stream fills:
   direct-mapped, the L1's 8 ways by 64 sets, the L2's 16 ways, the L3's
   11 ways over set counts that are not powers of two, and the TLB's 4
   ways by 16 sets of pages. Full sets and one-way sets are where moving
   a line to the front of its set can go wrong. Addresses spread over one
   more line per set than the set holds. *)
let gen_geometry_ops =
  QCheck2.Gen.(
    oneof
      [
        map (fun b -> (1 lsl b, 1, 64)) (int_range 0 6);
        return (64, 8, 64);
        map (fun b -> (1 lsl b, 16, 64)) (int_range 0 3);
        map (fun s -> (s, 11, 64)) (oneofl [ 3; 5; 6; 12; 36 ]);
        return (16, 4, 4096);
      ]
    >>= fun ((sets, assoc, line) as geometry) ->
    let op =
      frequency
        [
          (300, return `Access);
          (60, return `Repeat);
          (60, return `Fill);
          (60, return `Contains);
          (1, return `Flush);
        ]
    in
    let addr = int_range 0 ((sets * (assoc + 1) * line) - 1) in
    map (fun ops -> (geometry, ops)) (list_size (int_range 1 2000) (pair op addr)))

let prop_cache_geometries_match_reference =
  QCheck2.Test.make
    ~name:"cache: product geometries match the MRU-list reference"
    ~count:200 ~long_factor:20
    ~print:(fun ((sets, assoc, line), ops) ->
      Printf.sprintf "%d sets x %d ways x %d-byte lines, %d ops" sets assoc line
        (List.length ops))
    gen_geometry_ops
    (fun (geometry, ops) -> ops_match_reference geometry ops)

(* Sets per page of a paged level of [assoc] ways, and the fewest whole
   pages of sets a paged level of [assoc] ways spans: a smaller level is
   one flat page. *)
let paging =
  let memo = Hashtbl.create 16 in
  fun assoc ->
    match Hashtbl.find_opt memo assoc with
    | Some p -> p
    | None ->
        let level sets = Cache.create ~name:"pages" ~size_bytes:(sets * assoc * 64) ~assoc ~line_bytes:64 in
        let ps = Cache.page_sets (level (1 lsl 20)) in
        let rec fewest k =
          let c = level ((k * ps) + 1) in
          if Cache.page_sets c < Cache.sets c then k else fewest (k + 1)
        in
        let p = (ps, fewest 1) in
        Hashtbl.add memo assoc p;
        p

(* Paged levels: 1-16 ways over the fewest whole pages of sets a paged
   level spans, or up to two more, and part of another, so the set count
   is neither a power of two nor a multiple of a page and the last page
   is short. Most addresses fall on sets at the edges of pages and of the
   level, with one more tag than a set holds, so sets fill and evict
   across page boundaries; the rest land anywhere, mostly on pages
   nothing else touches. Flushes drop the pages, and the final sweep
   probes the first and last set of every page, filled, emptied or
   never touched. *)
let gen_paged_ops =
  QCheck2.Gen.(
    int_range 1 16 >>= fun assoc ->
    let ps, fewest = paging assoc in
    pair (int_range fewest (fewest + 2)) (int_range 1 (ps - 1)) >>= fun (whole, part) ->
    let sets = (whole * ps) + part in
    let edges =
      List.sort_uniq compare
        ((sets - 1) :: List.concat_map (fun p -> [ p * ps; (p * ps) - 1 ]) (List.init (whole + 1) Fun.id))
      |> List.filter (fun s -> s >= 0)
    in
    let set = frequency [ (4, oneofl edges); (1, int_range 0 (sets - 1)) ] in
    let addr =
      map3 (fun s tag off -> (((tag * sets) + s) * 64) + off) set (int_range 0 (assoc + 1)) (int_range 0 63)
    in
    let op =
      frequency
        [
          (300, return `Access);
          (60, return `Repeat);
          (60, return `Fill);
          (100, return `Contains);
          (4, return `Flush);
        ]
    in
    map (fun ops -> ((sets, assoc, 64), ops)) (list_size (int_range 1 1500) (pair op addr)))

let prop_paged_cache_matches_reference =
  QCheck2.Test.make
    ~name:"cache: a tag store of several pages matches the MRU-list reference"
    ~count:100 ~long_factor:20
    ~print:(fun ((sets, assoc, _), ops) ->
      Printf.sprintf "%d sets x %d ways (%d-set pages), %d ops" sets assoc (fst (paging assoc))
        (List.length ops))
    gen_paged_ops
    (fun (((sets, assoc, line) as geometry), ops) ->
      let ps = fst (paging assoc) in
      let sweep =
        List.concat_map
          (fun p ->
            List.concat_map
              (fun s -> List.init (assoc + 2) (fun tag -> ((tag * sets) + s) * line))
              [ p * ps; min sets ((p + 1) * ps) - 1 ])
          (List.init (((sets - 1) / ps) + 1) Fun.id)
      in
      ops_match_reference ~sweep geometry ops)

(* ------------------------------------------------------------------ *)
(* Reference hierarchy: three reference caches and a reference TLB.     *)
(* ------------------------------------------------------------------ *)

module Ref_hierarchy = struct
  type t = {
    cfg : Hierarchy.config;
    l1 : Ref_cache.t;
    l2 : Ref_cache.t;
    l3 : Ref_cache.t;
    tlb : Ref_cache.t;
    mutable c : Hierarchy.counters;
  }

  let page = 4096

  let create (cfg : Hierarchy.config) =
    let level size assoc =
      Ref_cache.create ~sets:(size / (assoc * cfg.line_bytes)) ~assoc ~line:cfg.line_bytes
    in
    {
      cfg;
      l1 = level cfg.l1_size cfg.l1_assoc;
      l2 = level cfg.l2_size cfg.l2_assoc;
      l3 = level cfg.l3_size cfg.l3_assoc;
      tlb = Ref_cache.create ~sets:(cfg.tlb_entries / cfg.tlb_assoc) ~assoc:cfg.tlb_assoc ~line:page;
      c =
        { Hierarchy.accesses = 0; l1_misses = 0; l2_misses = 0; l3_misses = 0; tlb_misses = 0;
          prefetches = 0 };
    }

  let floor_div a b = if a >= 0 then a / b else (a - b + 1) / b

  (* Every line, then every page, the bytes [addr, addr + size) cover, in
     address order. A demand L1 miss probes L2, an L2 miss probes L3; with
     prefetch on, it also fills the next line into L1 and L2 unless L1
     already holds it. *)
  let access t addr size =
    let c = t.c in
    let line = t.cfg.line_bytes in
    let l1 = ref c.l1_misses and l2 = ref c.l2_misses and l3 = ref c.l3_misses in
    let tlb = ref c.tlb_misses and pf = ref c.prefetches in
    for i = floor_div addr line to floor_div (addr + size - 1) line do
      let a = i * line in
      if not (Ref_cache.access t.l1 a) then begin
        incr l1;
        if not (Ref_cache.access t.l2 a) then begin
          incr l2;
          if not (Ref_cache.access t.l3 a) then incr l3
        end;
        if t.cfg.prefetch && not (Ref_cache.contains t.l1 (a + line)) then begin
          Ref_cache.fill t.l1 (a + line);
          Ref_cache.fill t.l2 (a + line);
          incr pf
        end
      end
    done;
    for p = floor_div addr page to floor_div (addr + size - 1) page do
      if not (Ref_cache.access t.tlb (p * page)) then incr tlb
    done;
    t.c <-
      { Hierarchy.accesses = c.accesses + 1; l1_misses = !l1; l2_misses = !l2; l3_misses = !l3;
        tlb_misses = !tlb; prefetches = !pf }
end

(* 2-set L1, 4-set L2 and a 6-set (not a power of two) L3, with an
   8-entry TLB: small enough that every level evicts. *)
let tiny_hierarchy =
  { Hierarchy.xeon_w2195 with
    Hierarchy.l1_size = 256; l1_assoc = 2; l2_size = 1024; l2_assoc = 4;
    l3_size = 1536; l3_assoc = 4; tlb_entries = 8; tlb_assoc = 2 }

(* Streams biased towards the previous line and page, with 1-100-byte
   sizes, addresses around 0 and accesses ending at max_int. *)
let gen_hierarchy_stream =
  QCheck2.Gen.(
    let size = int_range 1 100 in
    let step =
      frequency
        [
          (5, map2 (fun d s -> (`Near d, s)) (int_range (-8) 72) size);
          (2, map2 (fun a s -> (`At a, s)) (int_range (-300) 300) size);
          (3, map2 (fun a s -> (`At a, s)) (int_range 0 (1 lsl 16)) size);
          (1, map2 (fun k s -> (`At (max_int - s + 1 - k), s)) (int_range 0 200) size);
        ]
    in
    quad bool bool (option (int_range 1 64)) (list_size (int_range 1 300) step))

(* [sample] creates the hierarchy with [~obs], tracing into a buffer and
   sampling the miss streams every that many accesses. *)
let prop_hierarchy_matches_reference =
  QCheck2.Test.make
    ~name:"hierarchy: counters match a reference hierarchy after every access"
    ~count:300 gen_hierarchy_stream
    (fun (prefetch, tiny, sample, steps) ->
      let base = if tiny then tiny_hierarchy else Hierarchy.xeon_w2195 in
      let config = { base with Hierarchy.prefetch } in
      let h =
        match sample with
        | None -> Hierarchy.create ~config ()
        | Some sample_every ->
            let obs = Obs.create ~trace:(Obs.Buffer (Buffer.create 256)) () in
            Hierarchy.create ~config ~obs ~sample_every ()
      in
      let r = Ref_hierarchy.create config in
      let prev = ref 0 in
      List.for_all
        (fun (where, size) ->
          let addr =
            match where with
            | `At a -> a
            | `Near d -> if !prev > 1 lsl 40 then d else !prev + d
          in
          prev := addr;
          Hierarchy.access h addr size;
          Ref_hierarchy.access r addr size;
          Hierarchy.counters h = r.Ref_hierarchy.c)
        steps)

(* ------------------------------------------------------------------ *)
(* Helper-domain stream: the same accesses through Hierarchy.Stream on a *)
(* helper and through direct Hierarchy.access calls.                    *)
(* ------------------------------------------------------------------ *)

let chunk_pairs = Hierarchy.Stream.chunk_pairs

(* A segment is [n] accesses drawn from [seed], then a drain. Counts are
   small, exact multiples of a chunk (a drain at a chunk boundary; 0 is an
   empty drain) or within 3 of one, up to 9 chunks, past the 8-chunk ring,
   so the producer also waits for room. *)
let gen_stream_case =
  QCheck2.Gen.(
    let count =
      frequency
        [
          (3, int_range 0 300);
          (2, map (fun k -> k * chunk_pairs) (int_range 0 9));
          (2, map2 (fun k d -> (k * chunk_pairs) + d) (int_range 1 9) (int_range (-3) 3));
        ]
    in
    quad bool bool
      (option (int_range 32 4096))
      (list_size (int_range 1 6) (pair count (int_bound 1_000_000))))

let print_stream_case (prefetch, tiny, sample, segs) =
  Printf.sprintf "prefetch=%b tiny=%b sample=%s segments=[%s]" prefetch tiny
    (match sample with None -> "-" | Some n -> string_of_int n)
    (String.concat "; " (List.map (fun (n, seed) -> Printf.sprintf "%d@%d" n seed) segs))

(* Sizes 1-64; addresses near the previous one, around 0, below 1 MiB,
   near [min_int], and ending just below [max_int]. *)
let stream_access st prev =
  let size = 1 + Random.State.int st 64 in
  let addr =
    match Random.State.int st 10 with
    | 0 | 1 | 2 | 3 ->
        let d = Random.State.int st 80 - 8 in
        if prev > 1 lsl 40 || prev < -(1 lsl 40) then d else prev + d
    | 4 | 5 -> Random.State.int st 601 - 300
    | 6 | 7 -> Random.State.int st (1 lsl 20)
    | 8 -> min_int + Random.State.int st 1000
    | _ -> max_int - size + 1 - Random.State.int st 200
  in
  (addr, size)

(* (name, value, [attr]) of every counter event in a finished trace;
   [attr] (default ["accesses"]) is the event's position in its stream. *)
let counter_events ?(attr = "accesses") buf =
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter_map (fun line ->
         let line =
           if String.length line > 0 && line.[0] = ',' then
             String.sub line 1 (String.length line - 1)
           else line
         in
         match Json.of_string line with
         | Ok ev when Json.get_string "ph" ev = Ok "C" ->
             let args = Option.get (Json.mem "args" ev) in
             Some
               ( Json.get_string "name" ev,
                 Json.get_float "value" args,
                 Json.get_int attr args )
         | _ -> None)

let prop_stream_matches_direct =
  QCheck2.Test.make
    ~name:"hierarchy stream: a helper gives the direct counters after every drain"
    ~count:60 ~long_factor:5 ~print:print_stream_case gen_stream_case
    (fun (prefetch, tiny, sample, segs) ->
      let base = if tiny then tiny_hierarchy else Hierarchy.xeon_w2195 in
      let config = { base with Hierarchy.prefetch } in
      let make () =
        match sample with
        | None -> (Hierarchy.create ~config (), None)
        | Some sample_every ->
            let buf = Buffer.create 4096 in
            let obs = Obs.create ~trace:(Obs.Buffer buf) () in
            (Hierarchy.create ~config ~obs ~sample_every (), Some (obs, buf))
      in
      let direct, direct_obs = make () and streamed, stream_obs = make () in
      let same_counters =
        Hierarchy.Stream.run ~helper:true streamed (fun s ->
            let push = Hierarchy.Stream.hook s in
            List.for_all
              (fun (n, seed) ->
                let st = Random.State.make [| seed |] in
                let prev = ref 0 in
                let segment =
                  Array.init n (fun _ ->
                      let a = stream_access st !prev in
                      prev := fst a;
                      a)
                in
                (* Pushing alone outruns the helper, so long segments
                   fill the ring. *)
                Array.iter (fun (addr, size) -> push addr size false) segment;
                Array.iter (fun (addr, size) -> Hierarchy.access direct addr size) segment;
                Hierarchy.Stream.drain s;
                Hierarchy.counters streamed = Hierarchy.counters direct)
              segs)
      in
      same_counters
      &&
      match (direct_obs, stream_obs) with
      | Some (od, bd), Some (os, bs) ->
          Obs.finish od;
          Obs.finish os;
          counter_events bd = counter_events bs
      | _ -> true)

(* ------------------------------------------------------------------ *)
(* The profiler on the same stream: Profiler.profile with its affinity *)
(* queue and graph on a helper, and all inline.                         *)
(* ------------------------------------------------------------------ *)

(* The registry a profile leaves, as comparable strings, without what
   only one side records ([profile.stream.*]) or what reads the clock
   ([runtime.alloc_rate]). *)
let registry_summary obs =
  Metrics.snapshot (Obs.metrics obs)
  |> List.filter (fun (n, _) ->
         n <> "runtime.alloc_rate"
         && not (String.starts_with ~prefix:"profile.stream." n))
  |> List.map (fun (n, v) ->
         n ^ "=" ^ Json.to_string ~pretty:false (Metrics.value_to_json v))

let has_stream_metrics obs =
  List.mem_assoc "profile.stream.producer_wait_s" (Metrics.snapshot (Obs.metrics obs))

let print_profile_case (seed, period, traced) =
  Printf.sprintf "fuzz seed=%d sample_period=%d traced=%b" seed period traced

let prop_profile_stream_matches_inline =
  QCheck2.Test.make
    ~name:"profiler stream: a helper gives the inline profile and registry"
    ~count:40 ~long_factor:5 ~print:print_profile_case
    QCheck2.Gen.(
      triple (int_bound 1_000_000) (frequency [ (3, pure 1); (1, int_range 2 5) ]) bool)
    (fun (seed, period, traced) ->
      let program = (Fuzz_gen.generate ~seed ()).Fuzz_gen.test in
      let config = { Profiler.default_config with Profiler.sample_period = period } in
      let run helper =
        let buf = Buffer.create 4096 in
        let obs =
          if traced then Obs.create ~trace:(Obs.Buffer buf) () else Obs.create ()
        in
        let r =
          match Profiler.profile ~obs ~helper ~config program with
          | r -> Ok (T_profile.profile_digest r)
          | exception e -> Error (Printexc.to_string e)
        in
        Obs.finish obs;
        ( r,
          registry_summary obs,
          has_stream_metrics obs,
          counter_events ~attr:"tick" buf )
      in
      let r1, reg1, streamed1, ev1 = run true in
      let r0, reg0, streamed0, ev0 = run false in
      r1 = r0 && reg1 = reg0 && streamed1 && (not streamed0) && ev1 = ev0)

(* The per-workload golden digests of [T_profile], with the queue and
   graph forced onto a helper and forbidden one, and with the depth
   series sampled there: the same profile, the same registry and the
   same series as inline. *)
let profile_goldens_with_helper () =
  List.iter
    (fun (name, expected) ->
      let program = (Option.get (Workloads.find name)).Workload.make Workload.Test in
      let run helper =
        let buf = Buffer.create 4096 in
        let obs = Obs.create ~trace:(Obs.Buffer buf) () in
        let d = T_profile.profile_digest (Profiler.profile ~obs ~helper program) in
        Obs.finish obs;
        (d, registry_summary obs, counter_events ~attr:"tick" buf)
      in
      let d1, reg1, ev1 = run true in
      Alcotest.(check string) (name ^ " digest with a helper") expected d1;
      Alcotest.(check string)
        (name ^ " digest with a helper, untraced")
        expected
        (T_profile.profile_digest (Profiler.profile ~helper:true program));
      let d0, reg0, ev0 = run false in
      Alcotest.(check string) (name ^ " digest without a helper") expected d0;
      Alcotest.(check (list string)) (name ^ " registry") reg0 reg1;
      Alcotest.(check bool) (name ^ " depth series sampled") true (ev0 <> []);
      Alcotest.(check bool) (name ^ " depth series") true (ev0 = ev1))
    T_profile.profiler_golden

(* ------------------------------------------------------------------ *)
(* Reference score function: Figure 7 computed from the edge list.      *)
(* ------------------------------------------------------------------ *)

let prop_score_matches_reference =
  QCheck2.Test.make ~name:"score: matches Figure 7 computed naively" ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 0 15)
           (triple (int_range 0 5) (int_range 0 5) (int_range 1 20)))
        (list_size (int_range 1 6) (int_range 0 5)))
    (fun (edges, members) ->
      let g = Affinity_graph.create () in
      List.iter
        (fun (x, y, w) ->
          for _ = 1 to w do
            Affinity_graph.add_affinity g x y
          done)
        edges;
      let members = List.sort_uniq compare members in
      (* Naive Figure 7 over the member set. *)
      let inside x = List.mem x members in
      let edge_weights = Hashtbl.create 16 in
      List.iter
        (fun (x, y, w) ->
          let k = (min x y, max x y) in
          Hashtbl.replace edge_weights k
            (w + try Hashtbl.find edge_weights k with Not_found -> 0))
        edges;
      let sum = ref 0 and loops = ref 0 in
      Hashtbl.iter
        (fun (x, y) w ->
          if inside x && inside y && w > 0 then begin
            sum := !sum + w;
            if x = y then incr loops
          end)
        edge_weights;
      let n = List.length members in
      let denom = float_of_int !loops +. (float_of_int (n * (n - 1)) /. 2.0) in
      let expected = if denom <= 0.0 then 0.0 else float_of_int !sum /. denom in
      Float.abs (Score.score g members -. expected) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Selector evaluation: Identify.eval against literal DNF semantics.    *)
(* ------------------------------------------------------------------ *)

let prop_selector_eval_is_dnf =
  QCheck2.Test.make ~name:"identify: eval implements DNF over site membership"
    ~count:300
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 4) (list_size (int_range 1 4) (int_range 0 9)))
        (list_size (int_range 0 6) (int_range 0 9)))
    (fun (disjuncts, live_sites) ->
      let sel = { Identify.group = 0; disjuncts } in
      let live s = List.mem s live_sites in
      let expected =
        List.exists (fun conj -> List.for_all (fun s -> List.mem s live_sites) conj)
          disjuncts
      in
      Identify.eval live sel = expected)

(* ------------------------------------------------------------------ *)
(* Reference SEQUITUR: the record-based implementation the arena       *)
(* version was ported from (boxed symbols, a polymorphic digram key).   *)
(* ------------------------------------------------------------------ *)

module Ref_sequitur = struct
  (* Classic imperative SEQUITUR (after the reference implementation by
     Nevill-Manning & Witten): doubly-linked symbol lists per rule with a
     circular guard, a digram index enforcing digram uniqueness, and rule
     utility enforced by expanding rules whose use count falls to one. *)

  type value = Term of int | NonTerm of rule | Guard of rule

  and sym = { mutable v : value; mutable prev : sym; mutable next : sym }

  and rule = { id : int; guard : sym; mutable refs : int }

  type key = int * int * int * int

  type t = {
    start : rule;
    index : (key, sym) Hashtbl.t;
    mutable next_rule_id : int;
    mutable input_len : int;
    mutable nrules : int;
  }

  let is_guard s = match s.v with Guard _ -> true | _ -> false

  let val_key = function
    | Term i -> (0, i)
    | NonTerm r -> (1, r.id)
    | Guard _ -> invalid_arg "Sequitur: guard in digram"

  let digram_key s =
    let a, b = val_key s.v and c, d = val_key s.next.v in
    (a, b, c, d)

  let raw_rule id =
    let rec guard = { v = Term (-1); prev = guard; next = guard } in
    let r = { id; guard; refs = 0 } in
    guard.v <- Guard r;
    r

  let mk_rule t =
    let r = raw_rule t.next_rule_id in
    t.next_rule_id <- t.next_rule_id + 1;
    t.nrules <- t.nrules + 1;
    r

  let create () =
    {
      start = raw_rule 0;
      index = Hashtbl.create 4096;
      next_rule_id = 1;
      input_len = 0;
      nrules = 1;
    }

  (* Remove the index entry for the digram starting at [s], if it is the
     indexed occurrence (physical equality guards against unrelated pairs
     with equal values). *)
  let delete_digram t s =
    if (not (is_guard s)) && not (is_guard s.next) then begin
      let k = digram_key s in
      match Hashtbl.find_opt t.index k with
      | Some m when m == s -> Hashtbl.remove t.index k
      | _ -> ()
    end

  (* Link left -> right, un-indexing the digram that used to start at
     [left]. *)
  let join t left right =
    delete_digram t left;
    left.next <- right;
    right.prev <- left

  let insert_after t s fresh =
    join t fresh s.next;
    join t s fresh

  let deuse = function NonTerm r -> r.refs <- r.refs - 1 | _ -> ()
  let reuse = function NonTerm r -> r.refs <- r.refs + 1 | _ -> ()

  (* Unlink and discard a (non-guard) symbol. *)
  let delete_sym t s =
    join t s.prev s.next;
    delete_digram t s;
    deuse s.v

  let new_nonterm r =
    r.refs <- r.refs + 1;
    NonTerm r

  let rule_of_guard s =
    match s.v with Guard r -> r | _ -> invalid_arg "Sequitur: not a guard"

  let first r = r.guard.next
  let last r = r.guard.prev

  (* Forward declarations for the mutually recursive check / match /
     substitute / expand. *)
  let rec check t s =
    if is_guard s || is_guard s.next then false
    else begin
      let k = digram_key s in
      match Hashtbl.find_opt t.index k with
      | None ->
          Hashtbl.replace t.index k s;
          false
      | Some m when m == s || m.next == s || s.next == m ->
          (* Already indexed here, or the occurrences overlap (aaa) in either
             direction — the right-overlap case arises only from the extra
             chain probes in [substitute]. *)
          false
      | Some m ->
          process_match t s m;
          true
    end

  and process_match t s m =
    let r =
      if is_guard m.prev && is_guard m.next.next then begin
        (* The earlier occurrence is a complete rule body: reuse the rule. *)
        let r = rule_of_guard m.prev in
        substitute t s r;
        r
      end
      else begin
        (* Create a new rule for the digram and substitute both
           occurrences. *)
        let r = mk_rule t in
        let c1 = { v = s.v; prev = r.guard; next = r.guard } in
        reuse c1.v;
        insert_after t (last r) c1;
        let c2 = { v = s.next.v; prev = r.guard; next = r.guard } in
        reuse c2.v;
        insert_after t (last r) c2;
        substitute t m r;
        substitute t s r;
        Hashtbl.replace t.index (digram_key (first r)) (first r);
        r
      end
    in
    (* Rule utility: if the rule's first symbol is a nonterminal used only
       once, inline it. *)
    match (first r).v with
    | NonTerm r2 when r2.refs = 1 -> expand_sym t (first r)
    | _ -> ()

  and substitute t s r =
    let q = s.prev in
    delete_sym t s.next;
    delete_sym t s;
    let fresh = { v = new_nonterm r; prev = q; next = q } in
    insert_after t q fresh;
    (* Re-check digrams around the replacement. Beyond the canonical
       (q, fresh) and (fresh, q.next.next) checks, equal-symbol chains
       ("aaa") need two more: deleting the pair can orphan the index slot of
       a chain digram one position to the left of [q] or one position to the
       right of [fresh], because overlapping occurrences share a key and only
       one occurrence is ever indexed. A check () on an indexed digram is a
       no-op, so the extra probes are harmless otherwise. Each check can
       itself substitute (invalidating saved pointers), so stop at the first
       that does — its own recursion re-checks the new neighbourhood. *)
    if not (check t q.prev) then
      if not (check t q) then
        if not (check t q.next) then ignore (check t q.next.next : bool)

  and expand_sym t s =
    (* [s] is a nonterminal whose rule is used exactly once: splice the rule
       body in place of [s] and delete the rule. *)
    let r = match s.v with NonTerm r -> r | _ -> invalid_arg "expand_sym" in
    let left = s.prev and right = s.next in
    let f = first r and l = last r in
    delete_digram t s;
    join t left f;
    join t l right;
    Hashtbl.replace t.index (digram_key l) l;
    t.nrules <- t.nrules - 1

  let push t terminal =
    if terminal < 0 then invalid_arg "Sequitur.push: negative terminal";
    let g = t.start.guard in
    let fresh = { v = Term terminal; prev = g; next = g } in
    insert_after t g.prev fresh;
    t.input_len <- t.input_len + 1;
    if t.input_len > 1 then ignore (check t fresh.prev : bool)

  let input_length t = t.input_len

  let iter_rhs r f =
    let s = ref (first r) in
    while not (is_guard !s) do
      f !s;
      s := !s.next
    done

  let all_rules t =
    (* Collect reachable rules from the start rule (all rules are reachable
       by construction). *)
    let seen = Hashtbl.create 64 in
    let order = ref [] in
    let rec visit r =
      if not (Hashtbl.mem seen r.id) then begin
        Hashtbl.replace seen r.id r;
        iter_rhs r (fun s ->
            match s.v with NonTerm r2 -> visit r2 | _ -> ());
        order := r :: !order
      end
    in
    visit t.start;
    (* [order] is reverse-topological: children before parents. *)
    !order

  type rule_info = Sequitur.rule_info = {
    rule_id : int;
    expansion : int array;
    uses : int;
    rhs_length : int;
  }

  let rules t =
    let topo = all_rules t in
    (* children-first list reversed = parents first *)
    let parents_first = topo in
    (* uses: start = 1; each nonterminal occurrence contributes the
       containing rule's uses. Process parents before children. *)
    let uses = Hashtbl.create 64 in
    Hashtbl.replace uses t.start.id 1;
    List.iter
      (fun r ->
        let u = try Hashtbl.find uses r.id with Not_found -> 0 in
        iter_rhs r (fun s ->
            match s.v with
            | NonTerm r2 ->
                let cur = try Hashtbl.find uses r2.id with Not_found -> 0 in
                Hashtbl.replace uses r2.id (cur + u)
            | _ -> ()))
      parents_first;
    (* expansions: children before parents, memoised. *)
    let expansions = Hashtbl.create 64 in
    let expansion_of r =
      let buf = ref [] in
      iter_rhs r (fun s ->
          match s.v with
          | Term i -> buf := [| i |] :: !buf
          | NonTerm r2 -> buf := Hashtbl.find expansions r2.id :: !buf
          | Guard _ -> ());
      Array.concat (List.rev !buf)
    in
    List.iter
      (fun r -> Hashtbl.replace expansions r.id (expansion_of r))
      (List.rev parents_first);
    List.map
      (fun r ->
        let rhs_length = ref 0 in
        iter_rhs r (fun _ -> incr rhs_length);
        {
          rule_id = r.id;
          expansion = Hashtbl.find expansions r.id;
          uses = (try Hashtbl.find uses r.id with Not_found -> 0);
          rhs_length = !rhs_length;
        })
      parents_first

  let expand t =
    match List.find_opt (fun ri -> ri.rule_id = t.start.id) (rules t) with
    | Some ri -> ri.expansion
    | None -> [||]

  let rule_count t = t.nrules

  let check_invariants t =
    let rl = all_rules t in
    let digrams = Hashtbl.create 256 in
    let err = ref None in
    let fail msg = if !err = None then err := Some msg in
    (* Digram uniqueness across all rule bodies. Overlapping occurrences
       (chains like "aaa") are legal: SEQUITUR only rewrites non-overlapping
       repeats, so a repeat is a violation only when the previous occurrence
       of the same digram is not the immediately preceding symbol. *)
    List.iter
      (fun r ->
        let s = ref (first r) in
        while not (is_guard !s) do
          if not (is_guard !s.next) then begin
            let k = digram_key !s in
            (match Hashtbl.find_opt digrams k with
            | Some prev when prev.next != !s ->
                fail (Printf.sprintf "digram repeated in rule %d" r.id)
            | _ -> ());
            Hashtbl.replace digrams k !s
          end;
          s := !s.next
        done)
      rl;
    (* Rule utility and refcount consistency. *)
    let counted = Hashtbl.create 64 in
    List.iter
      (fun r ->
        iter_rhs r (fun s ->
            match s.v with
            | NonTerm r2 ->
                Hashtbl.replace counted r2.id
                  (1 + try Hashtbl.find counted r2.id with Not_found -> 0)
            | _ -> ()))
      rl;
    List.iter
      (fun r ->
        if r.id <> t.start.id then begin
          let actual = try Hashtbl.find counted r.id with Not_found -> 0 in
          if actual <> r.refs then
            fail (Printf.sprintf "rule %d refcount %d but %d occurrences" r.id r.refs actual);
          if actual < 2 then
            fail (Printf.sprintf "rule %d used %d time(s): utility violated" r.id actual)
        end)
      rl;
    match !err with None -> Ok () | Some m -> Error m
end

(* Mixed inputs built from pieces that stress different parts of the
   algorithm: random strings over a 2-4-symbol alphabet, long runs of one
   symbol (overlapping "aaa" digrams), and a short pattern repeated many
   times (deep rule hierarchies, rule reuse and expansion). Every symbol
   is [base + k] for a small [k], with [base] either 0 or just below
   [max_int], so the arena's value encoding is exercised at both ends of
   the terminal range. *)
let gen_sequitur_input =
  QCheck2.Gen.(
    let* k = int_range 2 4 in
    let* base = oneofl [ 0; max_int - 3 ] in
    let sym = int_range 0 (k - 1) in
    let piece =
      frequency
        [
          (3, list_size (int_range 1 60) sym);
          (2, map2 (fun s n -> List.init n (fun _ -> s)) sym (int_range 2 80));
          ( 2,
            map2
              (fun p n -> List.concat (List.init n (fun _ -> p)))
              (list_size (int_range 1 6) sym)
              (int_range 2 40) );
        ]
    in
    let* pieces = list_size (int_range 0 12) piece in
    return (List.map (fun x -> base + x) (List.concat pieces)))

let print_sequitur_input l = String.concat " " (List.map string_of_int l)

let prop_sequitur_matches_reference =
  QCheck2.Test.make
    ~name:"sequitur: arena grammar matches the record-based reference rule for rule"
    ~count:200 ~long_factor:50 ~print:print_sequitur_input gen_sequitur_input
    (fun input ->
      let t = Sequitur.create () and r = Ref_sequitur.create () in
      List.iter
        (fun x ->
          Sequitur.push t x;
          Ref_sequitur.push r x)
        input;
      Sequitur.rules t = Ref_sequitur.rules r
      && Sequitur.rule_count t = Ref_sequitur.rule_count r
      && Sequitur.input_length t = Ref_sequitur.input_length r
      && Sequitur.check_invariants t = Ok ())

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_affinity_queue_matches_reference;
      prop_cache_matches_reference;
      prop_score_matches_reference;
      prop_selector_eval_is_dnf;
      prop_cache_ops_match_reference;
      prop_cache_geometries_match_reference;
      prop_paged_cache_matches_reference;
      prop_hierarchy_matches_reference;
      prop_heap_model_find_matches_reference;
      prop_paged_mem_matches_reference;
      prop_sequitur_matches_reference;
      prop_stream_matches_direct;
      prop_profile_stream_matches_inline;
    ]
  @ [
      Alcotest.test_case "profiler stream: golden digests with a helper" `Quick
        profile_goldens_with_helper;
    ]
