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

type counters = {
  accesses : int;
  l1_misses : int;
  l2_misses : int;
  l3_misses : int;
  tlb_misses : int;
  prefetches : int;
}

(* Miss-stream sampling state; [None] when observability is disabled. *)
type hobs = { o : Obs.t option; sample_every : int; mutable until_sample : int }

type t = {
  cfg : config;
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  tlb : Tlb.t;
  obs : hobs option;
  line_bits : int;
  page_bits : int;
  mutable last_page : int;  (* Page index ([asr]) last looked up; [min_int] before any. *)
  mutable accesses : int;
  mutable prefetches : int;
}

let create ?(config = xeon_w2195) ?obs ?(sample_every = 4096) () =
  if sample_every < 1 then invalid_arg "Hierarchy.create: sample_every must be >= 1";
  let tlb = Tlb.create ~entries:config.tlb_entries ~assoc:config.tlb_assoc () in
  {
    cfg = config;
    obs =
      Option.map
        (fun o -> { o = Some o; sample_every; until_sample = sample_every })
        obs;
    l1 =
      Cache.create ~name:"L1D" ~size_bytes:config.l1_size ~assoc:config.l1_assoc
        ~line_bytes:config.line_bytes;
    l2 =
      Cache.create ~name:"L2" ~size_bytes:config.l2_size ~assoc:config.l2_assoc
        ~line_bytes:config.line_bytes;
    l3 =
      Cache.create ~name:"L3" ~size_bytes:config.l3_size ~assoc:config.l3_assoc
        ~line_bytes:config.line_bytes;
    tlb;
    line_bits = Addr.log2 config.line_bytes;
    page_bits = Addr.log2 (Tlb.page_bytes tlb);
    last_page = min_int;
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
  point "cache.l1.misses" (Cache.misses t.l1);
  point "cache.l2.misses" (Cache.misses t.l2);
  point "cache.l3.misses" (Cache.misses t.l3);
  point "cache.tlb.misses" (Tlb.misses t.tlb)

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
  (* Walk the covered lines and pages in address order with [asr], so an
     access straddling address 0 visits the line below it first. *)
  let fin = addr + size - 1 in
  let lb = t.line_bits in
  for i = addr asr lb to fin asr lb do
    let a = i lsl lb in
    if not (Cache.access t.l1 a) then begin
      if not (Cache.access t.l2 a) then ignore (Cache.access t.l3 a : bool);
      if t.cfg.prefetch then begin
        (* Next-line prefetch: fill L1/L2 without charging a miss. *)
        let nxt = a + t.cfg.line_bytes in
        if not (Cache.contains t.l1 nxt) then begin
          Cache.fill t.l1 nxt;
          Cache.fill t.l2 nxt;
          t.prefetches <- t.prefetches + 1
        end
      end
    end
  done;
  (* Most accesses stay on the page the previous one ended on. Nothing
     else touches this TLB, so that page is still its most recent entry
     and looking it up again would change no counter the hierarchy
     reports. *)
  let pb = t.page_bits in
  for i = addr asr pb to fin asr pb do
    if i <> t.last_page then begin
      t.last_page <- i;
      ignore (Tlb.access t.tlb (i lsl pb) : bool)
    end
  done

let counters t =
  {
    accesses = t.accesses;
    l1_misses = Cache.misses t.l1;
    l2_misses = Cache.misses t.l2;
    l3_misses = Cache.misses t.l3;
    tlb_misses = Tlb.misses t.tlb;
    prefetches = t.prefetches;
  }

let reset_counters t =
  t.accesses <- 0;
  t.prefetches <- 0;
  Cache.reset_counters t.l1;
  Cache.reset_counters t.l2;
  Cache.reset_counters t.l3;
  Tlb.reset_counters t.tlb

let config t = t.cfg

let pp_counters ppf (c : counters) =
  Format.fprintf ppf
    "accesses=%d l1_miss=%d l2_miss=%d l3_miss=%d tlb_miss=%d prefetch=%d"
    c.accesses c.l1_misses c.l2_misses c.l3_misses c.tlb_misses c.prefetches
