type t = { cache : Cache.t; page_bytes : int }

let create ?(entries = 64) ?(assoc = 4) ?(page_bytes = 4096) () =
  if assoc <= 0 then invalid_arg "Tlb.create: non-positive associativity";
  if entries mod assoc <> 0 then invalid_arg "Tlb.create: entries not divisible by assoc";
  (* A TLB entry "line" is one page: reuse the cache machinery with
     line_bytes = page_bytes. *)
  {
    cache =
      Cache.create ~name:"dtlb" ~size_bytes:(entries * page_bytes) ~assoc
        ~line_bytes:page_bytes;
    page_bytes;
  }

let access t addr = Cache.access t.cache addr
let hits t = Cache.hits t.cache
let misses t = Cache.misses t.cache
let reset_counters t = Cache.reset_counters t.cache
let page_bytes t = t.page_bytes
