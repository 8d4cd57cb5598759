module Addr_map = Map.Make (Int)

type obj = { oid : int; addr : Addr.t; size : int; ctx : Context.id; seq : int }

(* Per-context allocation sequence numbers, appended in increasing order
   (seq is global and monotonic), so membership in an open interval is a
   binary search. Context ids are dense, so the logs live in an array
   indexed by context; [no_log] marks a slot whose context has not been
   asked about yet and is never appended to. *)
type seq_log = { mutable data : int array; mutable len : int }

type log = seq_log

let no_log = { data = [||]; len = 0 }

(* [find] fast paths, in probe order:

   - a one-entry cache holding the last hit;
   - a side table from 16-byte-aligned pages to the live object covering
     them, maintained for objects spanning at most [side_cap_pages]
     pages. 16 bytes matches the minimum size class, so under a real
     allocator distinct live objects never share a page; if callers
     hand-craft overlapping layouts the entry is merely stale-free
     best-effort — every hit is containment-checked and misses fall
     through to the ordered map, which remains the single source of
     truth.

   Each object's [Some o] cell is allocated once, in [on_alloc], and is
   what the map, the side table and the cache hold, so a hit on any path
   returns that cell instead of allocating a fresh one.

   The side table is open-addressed over plain int keys (linear probing,
   Fibonacci hashing, backward-shift deletion, at most half full): no
   generic hash, no polymorphic compare, no allocation per operation. *)
let side_page_bits = 4
let side_cap_pages = 64
let no_page = min_int (* never a page: [addr asr 4] stays above it *)

type t = {
  mutable live : obj option Addr_map.t; (* base address -> the object's cell *)
  mutable next_oid : int;
  mutable next_seq : int;
  mutable logs : seq_log array; (* ctx -> its log, or [no_log] *)
  mutable last : obj option; (* last [find] hit *)
  mutable side_keys : int array; (* 16-byte page, or [no_page] *)
  mutable side_vals : obj option array; (* the covering object's cell *)
  mutable side_shift : int; (* 63 - log2 (Array.length side_keys) *)
  mutable side_count : int;
}

let side_init_bits = 10

let create () =
  {
    live = Addr_map.empty;
    next_oid = 0;
    next_seq = 0;
    logs = Array.make 16 no_log;
    last = None;
    side_keys = Array.make (1 lsl side_init_bits) no_page;
    side_vals = Array.make (1 lsl side_init_bits) None;
    side_shift = 63 - side_init_bits;
    side_count = 0;
  }

(* The top bits of the 63-bit product: consecutive pages scatter. *)
let side_home t page = (page * 0x278DDE6E5FD29F05) lsr t.side_shift

(* The slot holding [page], or -1. *)
let side_slot t page =
  let keys = t.side_keys in
  let mask = Array.length keys - 1 in
  let i = ref (side_home t page) in
  while keys.(!i) <> page && keys.(!i) <> no_page do
    i := (!i + 1) land mask
  done;
  if keys.(!i) = page then !i else -1

let rec side_set t page cell =
  let keys = t.side_keys in
  let mask = Array.length keys - 1 in
  let i = ref (side_home t page) in
  while keys.(!i) <> page && keys.(!i) <> no_page do
    i := (!i + 1) land mask
  done;
  if keys.(!i) = page then t.side_vals.(!i) <- cell
  else if 2 * (t.side_count + 1) > Array.length keys then begin
    side_grow t;
    side_set t page cell
  end
  else begin
    keys.(!i) <- page;
    t.side_vals.(!i) <- cell;
    t.side_count <- t.side_count + 1
  end

and side_grow t =
  let keys = t.side_keys and vals = t.side_vals in
  let cap = 2 * Array.length keys in
  t.side_keys <- Array.make cap no_page;
  t.side_vals <- Array.make cap None;
  t.side_shift <- t.side_shift - 1;
  t.side_count <- 0;
  Array.iteri (fun i k -> if k <> no_page then side_set t k vals.(i)) keys

(* Empty slot [hole], then pull back every later entry of its probe run
   that may legally sit there, so probes never stop early on a gap. *)
let side_delete t hole =
  let keys = t.side_keys and vals = t.side_vals in
  let mask = Array.length keys - 1 in
  let hole = ref hole and j = ref ((hole + 1) land mask) in
  while keys.(!j) <> no_page do
    let home = side_home t keys.(!j) in
    if (!j - home) land mask >= (!j - !hole) land mask then begin
      keys.(!hole) <- keys.(!j);
      vals.(!hole) <- vals.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  keys.(!hole) <- no_page;
  vals.(!hole) <- None;
  t.side_count <- t.side_count - 1

let side_first o = o.addr asr side_page_bits
let side_last o = (o.addr + max o.size 1 - 1) asr side_page_bits
let side_tracked o = side_last o - side_first o < side_cap_pages

let ctx_log t ctx =
  if ctx < 0 then invalid_arg "Heap_model: negative context id";
  if ctx >= Array.length t.logs then begin
    let logs = Array.make (max (2 * Array.length t.logs) (ctx + 1)) no_log in
    Array.blit t.logs 0 logs 0 (Array.length t.logs);
    t.logs <- logs
  end;
  let l = t.logs.(ctx) in
  if l != no_log then l
  else begin
    (* Materialised on first ask, so the handle stays valid when the
       context allocates later — [log_push] appends into it. *)
    let l = { data = Array.make 16 0; len = 0 } in
    t.logs.(ctx) <- l;
    l
  end

let log_push t ctx seq =
  let log = ctx_log t ctx in
  if log.len = Array.length log.data then begin
    let bigger = Array.make (2 * log.len) 0 in
    Array.blit log.data 0 bigger 0 log.len;
    log.data <- bigger
  end;
  log.data.(log.len) <- seq;
  log.len <- log.len + 1

let on_alloc t ~addr ~size ~ctx =
  let o = { oid = t.next_oid; addr; size; ctx; seq = t.next_seq } in
  log_push t ctx o.seq;
  t.next_oid <- t.next_oid + 1;
  t.next_seq <- t.next_seq + 1;
  let cell = Some o in
  t.live <- Addr_map.add addr cell t.live;
  if side_tracked o then
    for p = side_first o to side_last o do
      side_set t p cell
    done;
  o

let on_free t ~addr =
  match Addr_map.find_opt addr t.live with
  | None -> None
  | Some cell ->
      let o = Option.get cell in
      t.live <- Addr_map.remove addr t.live;
      if t.last == cell then t.last <- None;
      if side_tracked o then
        for p = side_first o to side_last o do
          let i = side_slot t p in
          if i >= 0 && t.side_vals.(i) == cell then side_delete t i
        done;
      cell

let covers o addr = addr - o.addr >= 0 && addr - o.addr < max o.size 1

let find_slow t addr =
  match Addr_map.find_last_opt (fun base -> base <= addr) t.live with
  | Some (_, (Some o as cell)) when covers o addr -> cell
  | _ -> None

let find t addr =
  match t.last with
  | Some o when covers o addr -> t.last
  | _ ->
      let i = side_slot t (addr asr side_page_bits) in
      let r =
        if i < 0 then find_slow t addr
        else
          match t.side_vals.(i) with
          | Some o as cell when covers o addr -> cell
          | _ -> find_slow t addr
      in
      (match r with Some _ -> t.last <- r | None -> ());
      r

let live_count t = Addr_map.cardinal t.live
let allocs_total t = t.next_seq

let log_next log ~after =
  (* First sequence number in [log] strictly greater than [after];
     [max_int] if none yet. *)
  let a = ref 0 and b = ref log.len in
  while !a < !b do
    let mid = (!a + !b) / 2 in
    if log.data.(mid) <= after then a := mid + 1 else b := mid
  done;
  if !a < log.len then log.data.(!a) else max_int

let log_allocs_in_range log ~lo ~hi = hi - lo > 1 && log_next log ~after:lo < hi

let ctx_allocs_in_range t ~ctx ~lo ~hi =
  ctx >= 0 && ctx < Array.length t.logs && log_allocs_in_range t.logs.(ctx) ~lo ~hi
