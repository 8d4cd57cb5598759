module Addr_map = Map.Make (Int)

type obj = {
  oid : int;
  addr : Addr.t;
  size : int;
  ctx : Context.id;
  seq : int;
  prev : int;
  mutable next : int;
}

(* Two indexes hold the live objects:

   - a granule directory: each 4 KiB page of addresses maps to a
     256-cell array, one cell per 16-byte granule, holding the live
     object that touches it. Objects spanning at most [max_granules]
     granules (every object up to 4 KiB, at any base) get an entry;
   - an ordered map from base address to object, holding the objects the
     directory cannot: the others (counted in [large_live]) and, once
     [shared] is set, every object.

   [shared] is set, for good, the first time an allocation writes over a
   live cell, which unaligned neighbours sharing a granule do (the later
   one owns the cell, and freeing it empties a granule the earlier one
   still covers). Until then every directory object owns every granule it
   touches, so [on_free] finds it in its base granule's cell, and a cell
   that holds no object covering an address leaves only the large
   objects, which the map holds. The flip seeds the map from the cells.

   Each object's [Some o] cell is allocated once, in [on_alloc], and is
   what the map and the directory hold, so a hit on either returns that
   cell instead of allocating a fresh one.

   Page arrays sit in an ordered map behind a direct-mapped cache, as in
   [Interp.Mem]; absent pages are cached too, as [no_page]. *)
let granule_bits = 4
let page_bits = 12
let page_cells = 1 lsl (page_bits - granule_bits)
let max_granules = (4096 lsr granule_bits) + 1
let cache_mask = 1023
let no_key = min_int (* never a page: [addr asr 12] stays above it *)
let no_page : obj option array = [||]

type t = {
  mutable live : obj option Addr_map.t; (* base address -> the object's cell *)
  mutable live_count : int;
  mutable next_seq : int;
  mutable last_of_ctx : obj array; (* ctx -> its newest object, or [no_obj] *)
  mutable pages : obj option array Addr_map.t; (* page -> its granule cells *)
  cache_key : int array; (* slot -> page, or [no_key] *)
  cache_pg : obj option array array; (* slot -> its cells, or [no_page] *)
  mutable large_live : int; (* live objects without directory entries *)
  mutable shared : bool; (* an allocation once wrote over a live cell *)
}

let no_obj = { oid = -1; addr = 0; size = 0; ctx = -1; seq = -1; prev = -1; next = -1 }

let create () =
  {
    live = Addr_map.empty;
    live_count = 0;
    next_seq = 0;
    last_of_ctx = Array.make 16 no_obj;
    pages = Addr_map.empty;
    cache_key = Array.make (cache_mask + 1) no_key;
    cache_pg = Array.make (cache_mask + 1) no_page;
    large_live = 0;
    shared = false;
  }

let[@inline] slot_of page = (page lxor (page lsr 10)) land cache_mask
let[@inline] cell_of g = g land (page_cells - 1)

(* The cells of [page], or [no_page]; fills the cache slot either way. *)
let page_slow t page slot =
  let pg = Option.value (Addr_map.find_opt page t.pages) ~default:no_page in
  t.cache_key.(slot) <- page;
  t.cache_pg.(slot) <- pg;
  pg

let[@inline] page_of t page =
  let slot = slot_of page in
  if t.cache_key.(slot) = page then t.cache_pg.(slot) else page_slow t page slot

(* The cell of [addr]'s granule, [None] if its page has none. *)
let[@inline] cell_at t addr =
  let pg = page_of t (addr asr page_bits) in
  if pg == no_page then None else pg.(cell_of (addr asr granule_bits))

(* The cells of [page], created empty if absent. A page's cache slot is a
   function of the page alone, so overwriting it here keeps a cached
   absence from going stale. *)
let page_for t page =
  let pg = page_of t page in
  if pg != no_page then pg
  else begin
    let pg = Array.make page_cells None in
    t.pages <- Addr_map.add page pg t.pages;
    t.cache_pg.(slot_of page) <- pg;
    pg
  end

let first_granule o = o.addr asr granule_bits
let last_granule o = (o.addr + Int.max o.size 1 - 1) asr granule_bits
let in_directory o = last_granule o - first_granule o < max_granules

(* Apply [f pg i] to the cell of every granule in [g0, g1]. *)
let rec each_cell t g0 g1 f =
  let pg = page_for t (g0 asr (page_bits - granule_bits)) in
  let stop = Int.min g1 (g0 lor (page_cells - 1)) in
  for g = g0 to stop do
    f pg (cell_of g)
  done;
  if stop < g1 then each_cell t (stop + 1) g1 f

(* Set [shared] and put every directory object in the map, each from its
   base granule's cell, which it still owns. *)
let share t =
  t.shared <- true;
  Addr_map.iter
    (fun page pg ->
      Array.iteri
        (fun i cell ->
          match cell with
          | Some o when first_granule o = (page lsl (page_bits - granule_bits)) lor i ->
              t.live <- Addr_map.add o.addr cell t.live
          | _ -> ())
        pg)
    t.pages

let on_alloc t ~addr ~size ~ctx =
  if ctx < 0 then invalid_arg "Heap_model: negative context id";
  if ctx >= Array.length t.last_of_ctx then begin
    let a = Array.make (Int.max (2 * Array.length t.last_of_ctx) (ctx + 1)) no_obj in
    Array.blit t.last_of_ctx 0 a 0 (Array.length t.last_of_ctx);
    t.last_of_ctx <- a
  end;
  let seq = t.next_seq in
  let p = t.last_of_ctx.(ctx) in
  let o = { oid = seq; addr; size; ctx; seq; prev = p.seq; next = max_int } in
  if p != no_obj then p.next <- seq;
  t.last_of_ctx.(ctx) <- o;
  t.next_seq <- seq + 1;
  t.live_count <- t.live_count + 1;
  let cell = Some o in
  let indexed = in_directory o in
  if indexed then
    each_cell t (first_granule o) (last_granule o) (fun pg i ->
        if pg.(i) != None && not t.shared then share t;
        pg.(i) <- cell)
  else t.large_live <- t.large_live + 1;
  if t.shared || not indexed then t.live <- Addr_map.add addr cell t.live;
  o

let drop t cell o =
  t.live_count <- t.live_count - 1;
  if in_directory o then
    each_cell t (first_granule o) (last_granule o) (fun pg i ->
        if pg.(i) == cell then pg.(i) <- None)
  else t.large_live <- t.large_live - 1;
  cell

let on_free t ~addr =
  match if t.shared then None else cell_at t addr with
  | Some o as cell when o.addr = addr -> drop t cell o
  | _ -> (
      match Addr_map.find_opt addr t.live with
      | Some (Some o as cell) ->
          t.live <- Addr_map.remove addr t.live;
          drop t cell o
      | _ -> None)

(* [Int.max], not [Stdlib.max]: the polymorphic one compares through
   [caml_greaterequal] on every profiled access. *)
let covers o addr = addr - o.addr >= 0 && addr - o.addr < Int.max o.size 1

let find_slow t addr =
  match Addr_map.find_last_opt (fun base -> base <= addr) t.live with
  | Some (_, (Some o as cell)) when covers o addr -> cell
  | _ -> None

let find t addr =
  match cell_at t addr with
  | Some o as cell when covers o addr -> cell
  | _ when t.large_live = 0 && not t.shared -> None
  | _ -> find_slow t addr

let live_count t = t.live_count
