(* Tests for halo_cachesim: Cache, Hierarchy (and its DTLB), Timing. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checkf msg = Alcotest.check (Alcotest.float 1e-6) msg

let small_cache () = Cache.create ~name:"t" ~size_bytes:1024 ~assoc:2 ~line_bytes:64
(* 1024 / (2*64) = 8 sets *)

let cache_cold_miss_then_hit () =
  let c = small_cache () in
  checkb "cold miss" false (Cache.access c 0);
  checkb "hit" true (Cache.access c 0);
  checkb "same line hit" true (Cache.access c 63);
  checkb "next line miss" false (Cache.access c 64)

let cache_geometry () =
  let c = small_cache () in
  checki "sets" 8 (Cache.sets c);
  checki "assoc" 2 (Cache.assoc c);
  checki "line" 64 (Cache.line_bytes c);
  Alcotest.check Alcotest.string "name" "t" (Cache.name c)

let cache_lru_eviction () =
  let c = small_cache () in
  (* Three lines mapping to set 0: line addresses 0, 8*64, 16*64. *)
  let l0 = 0 and l1 = 8 * 64 and l2 = 16 * 64 in
  ignore (Cache.access c l0 : bool);
  ignore (Cache.access c l1 : bool);
  ignore (Cache.access c l2 : bool);
  (* l0 was LRU: evicted. *)
  checkb "LRU victim evicted" false (Cache.access c l0);
  (* l2 was MRU before l0's refill; l1 was evicted by l0. *)
  checkb "MRU survives" true (Cache.access c l2)

let cache_lru_touch_refreshes () =
  let c = small_cache () in
  let l0 = 0 and l1 = 8 * 64 and l2 = 16 * 64 in
  ignore (Cache.access c l0 : bool);
  ignore (Cache.access c l1 : bool);
  ignore (Cache.access c l0 : bool);
  (* refresh l0 *)
  ignore (Cache.access c l2 : bool);
  (* now l1 is the victim *)
  checkb "refreshed line survives" true (Cache.access c l0);
  checkb "stale line evicted" false (Cache.access c l1)

let cache_counters () =
  let c = small_cache () in
  ignore (Cache.access c 0 : bool);
  ignore (Cache.access c 0 : bool);
  ignore (Cache.access c 64 : bool);
  checki "hits" 1 (Cache.hits c);
  checki "misses" 2 (Cache.misses c);
  checki "accesses" 3 (Cache.accesses c);
  Cache.reset_counters c;
  checki "reset" 0 (Cache.accesses c);
  checkb "contents preserved" true (Cache.access c 0)

let cache_flush () =
  let c = small_cache () in
  ignore (Cache.access c 0 : bool);
  Cache.flush c;
  checkb "flushed" false (Cache.access c 0)

let cache_working_set_fits () =
  (* A working set equal to capacity must fully hit on the second pass. *)
  let c = small_cache () in
  for k = 0 to 15 do
    ignore (Cache.access c (k * 64) : bool)
  done;
  Cache.reset_counters c;
  for k = 0 to 15 do
    ignore (Cache.access c (k * 64) : bool)
  done;
  checki "all hits" 16 (Cache.hits c)

let cache_thrash_over_capacity () =
  (* Cyclic sweep of capacity+1 lines in one set thrashes under LRU. *)
  let c = Cache.create ~name:"t1" ~size_bytes:128 ~assoc:2 ~line_bytes:64 in
  (* 1 set, 2 ways *)
  for _pass = 1 to 3 do
    for k = 0 to 2 do
      ignore (Cache.access c (k * 64) : bool)
    done
  done;
  checki "no hits when cycling 3 lines through 2 ways" 0 (Cache.hits c)

let cache_locate_mask_matches_division () =
  (* The pow2 mask/shift fast path must agree with the exact mod/div
     formula, and a non-pow2 set count (the modelled Xeon's 11-way L3
     has 36864 sets) must take the fallback and still be exact. *)
  let check_cache c =
    let sets = Cache.sets c and line = Cache.line_bytes c in
    List.iter
      (fun addr ->
        let set, tag = Cache.locate c addr in
        let lineno = addr / line in
        checki (Printf.sprintf "set of %#x" addr) (lineno mod sets) set;
        checki (Printf.sprintf "tag of %#x" addr) (lineno / sets) tag)
      [ 0; 63; 64; 4095; 4096; 65535; 123_456_789; 0x7f00_0000_0000 ]
  in
  (* pow2 sets: 1024/(2*64) = 8 *)
  check_cache (Cache.create ~name:"p2" ~size_bytes:1024 ~assoc:2 ~line_bytes:64);
  (* single set (degenerate pow2) *)
  check_cache (Cache.create ~name:"one" ~size_bytes:128 ~assoc:2 ~line_bytes:64);
  (* non-pow2 sets: 25344 KiB, 11-way, 64B lines -> 36864 sets *)
  check_cache
    (Cache.create ~name:"l3" ~size_bytes:(25344 * 1024) ~assoc:11
       ~line_bytes:64)

let cache_non_pow2_behaviour () =
  (* A non-pow2 cache still hits/misses coherently through the fallback
     set extraction: 3 sets, 2-way. *)
  let c = Cache.create ~name:"np2" ~size_bytes:384 ~assoc:2 ~line_bytes:64 in
  checki "sets" 3 (Cache.sets c);
  checkb "cold" false (Cache.access c 0);
  checkb "hit" true (Cache.access c 0);
  (* 0 and 3*64 map to the same set, different tags: fills the set. *)
  checkb "same-set cold" false (Cache.access c (3 * 64));
  checkb "both resident" true (Cache.access c 0);
  checkb "both resident" true (Cache.access c (3 * 64));
  (* A third tag in set 0 evicts the LRU line (addr 0). *)
  checkb "third tag misses" false (Cache.access c (6 * 64));
  checkb "LRU evicted" false (Cache.access c 0)

let tlb_basic () =
  (* The hierarchy's DTLB: one 4 KiB page per entry. *)
  let h = Hierarchy.create () in
  let tlb_misses () = (Hierarchy.counters h).Hierarchy.tlb_misses in
  Hierarchy.access h 0x5000 8;
  checki "cold" 1 (tlb_misses ());
  Hierarchy.access h 0x5FF8 8;
  checki "same page" 1 (tlb_misses ());
  Hierarchy.access h 0x6000 8;
  checki "next page" 2 (tlb_misses ());
  Hierarchy.access h 0x5100 8;
  checki "first page still resident" 2 (tlb_misses ())

let hierarchy_miss_propagation () =
  let h = Hierarchy.create () in
  Hierarchy.access h 0x10000 8;
  let c = Hierarchy.counters h in
  checki "l1 miss" 1 c.Hierarchy.l1_misses;
  checki "l2 miss" 1 c.Hierarchy.l2_misses;
  checki "l3 miss" 1 c.Hierarchy.l3_misses;
  Hierarchy.access h 0x10000 8;
  let c = Hierarchy.counters h in
  checki "second access hits L1" 1 c.Hierarchy.l1_misses;
  checki "accesses counted" 2 c.Hierarchy.accesses

let hierarchy_straddling_access () =
  let h = Hierarchy.create () in
  (* 16 bytes starting 8 before a line boundary touch two lines. *)
  Hierarchy.access h (0x20000 - 8) 16;
  let c = Hierarchy.counters h in
  checki "two line misses" 2 c.Hierarchy.l1_misses;
  checki "one program access" 1 c.Hierarchy.accesses

let hierarchy_l2_catches_l1_evictions () =
  let h = Hierarchy.create () in
  let cfg = Hierarchy.config h in
  (* Touch 2x the L1 size, then re-touch: L1 misses but L2 holds it. *)
  let lines = 2 * cfg.Hierarchy.l1_size / cfg.Hierarchy.line_bytes in
  for k = 0 to lines - 1 do
    Hierarchy.access h (k * cfg.Hierarchy.line_bytes) 8
  done;
  Hierarchy.reset_counters h;
  for k = 0 to lines - 1 do
    Hierarchy.access h (k * cfg.Hierarchy.line_bytes) 8
  done;
  let c = Hierarchy.counters h in
  checkb "L1 misses on sweep" true (c.Hierarchy.l1_misses > 0);
  checki "but L2 absorbs everything" 0 c.Hierarchy.l2_misses

let raises_invalid_arg f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let constructors_reject_bad_geometry () =
  let cache ~line_bytes () = Cache.create ~name:"bad" ~size_bytes:1024 ~assoc:2 ~line_bytes in
  checkb "line_bytes 0" true (raises_invalid_arg (cache ~line_bytes:0));
  checkb "line_bytes 1" true (raises_invalid_arg (cache ~line_bytes:1));
  checkb "line_bytes 48" true (raises_invalid_arg (cache ~line_bytes:48));
  checkb "assoc 0" true
    (raises_invalid_arg (fun () -> Cache.create ~name:"bad" ~size_bytes:1024 ~assoc:0 ~line_bytes:64));
  let hierarchy ~tlb_entries ~tlb_assoc () =
    Hierarchy.create ~config:{ Hierarchy.xeon_w2195 with Hierarchy.tlb_entries; tlb_assoc } ()
  in
  checkb "tlb assoc 0" true (raises_invalid_arg (hierarchy ~tlb_entries:64 ~tlb_assoc:0));
  checkb "tlb entries 0" true (raises_invalid_arg (hierarchy ~tlb_entries:0 ~tlb_assoc:4));
  checkb "tlb entries 6, 4-way" true (raises_invalid_arg (hierarchy ~tlb_entries:6 ~tlb_assoc:4))

let cache_invalid_ways () =
  (* One set, four ways: after one access three ways are still invalid. *)
  let c = Cache.create ~name:"t4" ~size_bytes:256 ~assoc:4 ~line_bytes:64 in
  checkb "cold" false (Cache.access c 0);
  checkb "resident" true (Cache.contains c 0);
  checkb "absent" false (Cache.contains c 64);
  Cache.fill c 64;
  Cache.fill c 128;
  checki "fills leave the counters alone" 1 (Cache.accesses c);
  checkb "fill took an invalid way" true (Cache.contains c 0 && Cache.contains c 64);
  Cache.fill c 0;
  (* 0 is most recent again; 192 takes the last invalid way, then 256
     evicts the least recent line, 64. *)
  ignore (Cache.access c 192 : bool);
  ignore (Cache.access c 256 : bool);
  checkb "LRU line evicted" false (Cache.contains c 64);
  checkb "refilled line kept" true (Cache.contains c 0);
  Cache.flush c;
  checkb "flush invalidates" false (Cache.contains c 0);
  checki "flush zeroes counters" 0 (Cache.accesses c);
  checkb "the last line misses after a flush" false (Cache.access c 256);
  Cache.fill c 0;
  checkb "fill after flush" true (Cache.access c 0)

let cache_repeat_after_fill () =
  (* A direct-mapped single line: a fill between two accesses to the same
     line evicts it, so the second access must miss. *)
  let c = Cache.create ~name:"t1" ~size_bytes:64 ~assoc:1 ~line_bytes:64 in
  checkb "cold" false (Cache.access c 0);
  Cache.fill c 64;
  checkb "evicted by the fill" false (Cache.access c 0);
  checkb "repeat hits" true (Cache.access c 8);
  checki "hits" 1 (Cache.hits c);
  checki "misses" 2 (Cache.misses c)

let hierarchy_straddles_zero () =
  (* Bytes -1..6 cover the line and the page just below address 0 as well
     as the ones starting at 0. *)
  let h = Hierarchy.create () in
  Hierarchy.access h (-1) 8;
  let c = Hierarchy.counters h in
  checki "two lines" 2 c.Hierarchy.l1_misses;
  checki "two pages" 2 c.Hierarchy.tlb_misses;
  Hierarchy.access h (-8) 8;
  Hierarchy.access h 0 8;
  let c = Hierarchy.counters h in
  checki "both lines resident" 2 c.Hierarchy.l1_misses;
  checki "both pages resident" 2 c.Hierarchy.tlb_misses

let hierarchy_rejects_wrapping_access () =
  let h = Hierarchy.create () in
  checkb "wraps past max_int" true
    (raises_invalid_arg (fun () -> Hierarchy.access h (max_int - 3) 8));
  checkb "non-positive size" true (raises_invalid_arg (fun () -> Hierarchy.access h 0 0));
  checki "nothing counted" 0 (Hierarchy.counters h).Hierarchy.accesses;
  (* The last 8 bytes of the address space do not wrap. *)
  Hierarchy.access h (max_int - 7) 8;
  let c = Hierarchy.counters h in
  checki "one access" 1 c.Hierarchy.accesses;
  checki "one line" 1 c.Hierarchy.l1_misses;
  checki "one page" 1 c.Hierarchy.tlb_misses

let timing_monotone_in_misses () =
  let m = Timing.skylake_sp in
  let base =
    { Hierarchy.accesses = 1000; l1_misses = 10; l2_misses = 5; l3_misses = 1;
      tlb_misses = 0; prefetches = 0 }
  in
  let worse = { base with Hierarchy.l1_misses = 100 } in
  checkb "more misses, more cycles" true
    (Timing.cycles m ~instructions:1000 worse
    > Timing.cycles m ~instructions:1000 base)

let timing_speedup_signs () =
  checkf "28% speedup" 0.28 (Timing.speedup ~baseline:100.0 ~optimised:72.0);
  checkb "slowdown negative" true (Timing.speedup ~baseline:100.0 ~optimised:110.0 < 0.0)

let timing_miss_reduction () =
  checkf "23%" 0.23 (Timing.miss_reduction ~baseline:100 ~optimised:77);
  checkf "zero baseline" 0.0 (Timing.miss_reduction ~baseline:0 ~optimised:5)

let timing_seconds_scale () =
  let m = Timing.skylake_sp in
  let c =
    { Hierarchy.accesses = 0; l1_misses = 0; l2_misses = 0; l3_misses = 0;
      tlb_misses = 0; prefetches = 0 }
  in
  let cycles = Timing.cycles m ~instructions:1_000_000 c in
  checkf "seconds = cycles/GHz" (cycles /. (m.Timing.ghz *. 1e9))
    (Timing.seconds m ~instructions:1_000_000 c)

(* qcheck: hits + misses = accesses, under random access streams. *)
let prop_cache_accounting =
  QCheck2.Test.make ~name:"cache: hits + misses = accesses" ~count:100
    QCheck2.Gen.(list_size (int_range 1 500) (int_range 0 (1 lsl 16)))
    (fun addrs ->
      let c = small_cache () in
      List.iter (fun a -> ignore (Cache.access c a : bool)) addrs;
      Cache.hits c + Cache.misses c = List.length addrs)

(* qcheck: immediate repetition always hits. *)
let prop_cache_repeat_hits =
  QCheck2.Test.make ~name:"cache: immediately repeated access hits" ~count:100
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 (1 lsl 20)))
    (fun addrs ->
      let c = small_cache () in
      List.for_all
        (fun a ->
          ignore (Cache.access c a : bool);
          Cache.access c a)
        addrs)

(* qcheck: inclusion-style monotonicity of the hierarchy counters. *)
let prop_hierarchy_counter_order =
  QCheck2.Test.make ~name:"hierarchy: l3 <= l2 <= l1 misses" ~count:50
    QCheck2.Gen.(list_size (int_range 1 300) (int_range 0 (1 lsl 22)))
    (fun addrs ->
      let h = Hierarchy.create () in
      List.iter (fun a -> Hierarchy.access h a 8) addrs;
      let c = Hierarchy.counters h in
      c.Hierarchy.l3_misses <= c.Hierarchy.l2_misses
      && c.Hierarchy.l2_misses <= c.Hierarchy.l1_misses
      (* an unaligned 8-byte access may straddle two lines *)
      && c.Hierarchy.l1_misses <= 2 * List.length addrs)

(* Once every line and page of the stream has been seen, the per-access
   path (line walk, three levels, TLB, miss counting) allocates nothing. *)
let hierarchy_access_allocates_nothing () =
  let h = Hierarchy.create () in
  (* Strided and straddling accesses over 4 MiB: L1 and L2 misses, L3 and
     MRU hits, page changes. *)
  let addr k = (k * 4168 land ((1 lsl 22) - 1)) + 60 in
  for k = 0 to 9_999 do
    Hierarchy.access h (addr k) 8
  done;
  let n = 100_000 in
  let before = Gc.minor_words () in
  for k = 0 to n - 1 do
    Hierarchy.access h (addr k) 8
  done;
  let words = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "%.0f minor words over %d accesses" words n)
    true
    (words < float_of_int n /. 100.);
  checkb "the stream misses" true ((Hierarchy.counters h).Hierarchy.l1_misses > 0)

(* Words allocated by [f ()], minor and major: one domain allocates them
   all, so the count is deterministic. A word promoted during [f] counts
   twice, so the minor heap is emptied first. *)
let words_allocated f =
  let words () =
    let minor, _, major = Gc.counters () in
    minor +. major
  in
  Gc.minor ();
  let before = words () in
  f ();
  int_of_float (words () -. before)

(* Stand-alone levels of the modelled Xeon's L1, L2, L3 and DTLB. *)
let xeon_levels () =
  let x = Hierarchy.xeon_w2195 and line = Hierarchy.xeon_w2195.Hierarchy.line_bytes in
  List.map
    (fun (size, assoc, line_bytes) -> Cache.create ~name:"x" ~size_bytes:size ~assoc ~line_bytes)
    [
      (x.Hierarchy.l1_size, x.Hierarchy.l1_assoc, line);
      (x.Hierarchy.l2_size, x.Hierarchy.l2_assoc, line);
      (x.Hierarchy.l3_size, x.Hierarchy.l3_assoc, line);
      (x.Hierarchy.tlb_entries * 4096, x.Hierarchy.tlb_assoc, 4096);
    ]

(* A hierarchy allocates its one-page levels and an index of blank
   pages, not the L3's 405,504 tags: a run confined to one line then
   gives each paged level at most one page, and a probe of a page no
   fill reached allocates nothing. *)
let hierarchy_allocates_touched_pages () =
  let levels = xeon_levels () in
  let paged, flat = List.partition (fun c -> Cache.page_sets c < Cache.sets c) levels in
  checki "the L3 alone is paged" 1 (List.length paged);
  let tags c = Cache.sets c * Cache.assoc c in
  let flat_words = List.fold_left (fun n c -> n + tags c) 0 flat in
  let page_words = List.fold_left (fun n c -> n + (Cache.page_sets c * Cache.assoc c)) 0 paged in
  let h = ref None in
  let created = words_allocated (fun () -> h := Some (Hierarchy.create ())) in
  let h = Option.get !h in
  checkb
    (Printf.sprintf "create: %d words; the one-page levels hold %d tags" created flat_words)
    true
    (created < flat_words + 1024);
  let run =
    words_allocated (fun () ->
        for k = 0 to 999 do
          Hierarchy.access h (0x1234_0000 + (k land 7 * 8)) 8
        done)
  in
  checkb
    (Printf.sprintf "one line: %d words, a page is %d" run page_words)
    true
    (run <= page_words + 64);
  checki "one line misses once per level" 1 (Hierarchy.counters h).Hierarchy.l3_misses;
  let l3 = List.hd paged in
  let line = Cache.line_bytes l3 in
  Cache.fill l3 0;
  let probed =
    words_allocated (fun () ->
        for p = 1 to (Cache.sets l3 - 1) / Cache.page_sets l3 do
          ignore (Cache.contains l3 (p * Cache.page_sets l3 * line) : bool)
        done)
  in
  checkb
    (Printf.sprintf "probing blank pages: %d words, a page is %d" probed page_words)
    true (probed < page_words)

(* ---------------- Hierarchy.Stream ---------------- *)

let stream_rejects_at_push () =
  List.iter
    (fun helper ->
      let h = Hierarchy.create () in
      let spare = Par.spare_cores () in
      Hierarchy.Stream.run ~helper h (fun s ->
          checki "a core held iff a helper runs"
            (if helper then spare - 1 else spare)
            (Par.spare_cores ());
          let push = Hierarchy.Stream.hook s in
          Alcotest.check_raises "wraps past max_int"
            (Invalid_argument "Hierarchy.access: access wraps past max_int")
            (fun () -> push (max_int - 3) 8 false);
          Alcotest.check_raises "non-positive size"
            (Invalid_argument "Hierarchy.access: non-positive size")
            (fun () -> push 0 0 false);
          Hierarchy.Stream.drain s;
          checki "nothing queued" 0 (Hierarchy.counters h).Hierarchy.accesses;
          push (max_int - 7) 8 true;
          Hierarchy.Stream.drain s;
          checki "the last 8 bytes are queued" 1
            (Hierarchy.counters h).Hierarchy.accesses))
    [ false; true ];
  let s = Hierarchy.Stream.run ~helper:true (Hierarchy.create ()) Fun.id in
  checkb "a closed helper stream refuses to drain" true
    (raises_invalid_arg (fun () -> Hierarchy.Stream.drain s))

(* The helper's sampled events read the parent context's clock; one that
   fails off the main domain makes the helper raise mid-chunk. *)
let stream_failure_reraised_at_drain () =
  let main = Domain.self () in
  let clock () = if Domain.self () = main then 0.0 else failwith "helper clock" in
  let obs = Obs.create ~clock ~trace:(Obs.Buffer (Buffer.create 256)) () in
  let h = Hierarchy.create ~obs ~sample_every:1 () in
  let before = Par.spare_cores () in
  Hierarchy.Stream.run ~helper:true h (fun s ->
      checki "the helper holds a core" (before - 1) (Par.spare_cores ());
      Hierarchy.Stream.hook s 0 8 false;
      Alcotest.check_raises "re-raised at drain" (Failure "helper clock") (fun () ->
          Hierarchy.Stream.drain s);
      Hierarchy.Stream.drain s);
  checki "core returned" before (Par.spare_cores ())

(* An interpreter error mid-run leaves through [run]: the helper is joined
   and its core returned. *)
let stream_interp_error_returns_core () =
  let program =
    Dsl.(
      program ~main:"main"
        [
          func "main" []
            ([ malloc "p" (i 64) ]
            @ for_ "k" ~from:(i 0) ~below:(i 10_000) [ store (v "p") (i 8) (v "k") ]
            @ [ return_ (i 1 /: i 0) ]);
        ])
  in
  let before = Par.spare_cores () in
  let h = Hierarchy.create () in
  let raised =
    try
      Hierarchy.Stream.run ~helper:true h (fun s ->
          let hooks =
            { Interp.no_hooks with Interp.on_access = Hierarchy.Stream.hook s }
          in
          let alloc = Jemalloc_sim.create (Vmem.create ()) in
          ignore (Interp.run (Interp.create ~hooks ~program ~alloc ()) : int));
      false
    with Interp_error.Error { cause = Interp_error.Division_by_zero; _ } -> true
  in
  checkb "the interpreter's error propagates" true raised;
  checki "core returned" before (Par.spare_cores ())

(* With [obs], the helper's miss-stream events reach the parent's trace on
   the helper's track, the same events the direct path writes on track 0,
   and the stream's wait times are recorded. *)
let stream_events_on_helper_track () =
  let run helper =
    let buf = Buffer.create 4096 in
    let obs = Obs.create ~trace:(Obs.Buffer buf) () in
    let h = Hierarchy.create ~obs ~sample_every:100 () in
    Hierarchy.Stream.run ~helper h (fun s ->
        let push = Hierarchy.Stream.hook s in
        for k = 0 to 9_999 do
          push (k * 40) 8 false
        done;
        Hierarchy.Stream.drain s);
    Obs.finish obs;
    let events =
      String.split_on_char '\n' (Buffer.contents buf)
      |> List.filter_map (fun line ->
             let n = String.length line in
             match Json.of_string (if n > 0 then String.sub line 1 (n - 1) else line) with
             | Ok ev when Json.get_string "ph" ev = Ok "C" ->
                 let args = Option.get (Json.mem "args" ev) in
                 Some
                   ( Json.get_int "tid" ev,
                     (Json.get_string "name" ev, Json.get_float "value" args,
                      Json.get_int "accesses" args) )
             | _ -> None)
    in
    let waits =
      List.mem_assoc "cache.stream.producer_wait_s" (Metrics.snapshot (Obs.metrics obs))
    in
    (Hierarchy.counters h, events, waits)
  in
  let c_direct, e_direct, w_direct = run false in
  let c_helper, e_helper, w_helper = run true in
  checkb "same counters" true (c_direct = c_helper);
  checki "400 events" 400 (List.length e_direct);
  checkb "same events" true (List.map snd e_direct = List.map snd e_helper);
  checkb "direct events on the main track" true
    (List.for_all (fun (tid, _) -> tid = Ok 0) e_direct);
  checkb "helper events on its own track" true
    (List.for_all (fun (tid, _) -> Result.get_ok tid > 0) e_helper);
  checkb "wait times only with a helper" true ((not w_direct) && w_helper)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "cache: cold miss then hit" cache_cold_miss_then_hit;
    tc "cache: geometry" cache_geometry;
    tc "cache: LRU eviction" cache_lru_eviction;
    tc "cache: LRU refresh on touch" cache_lru_touch_refreshes;
    tc "cache: counters" cache_counters;
    tc "cache: flush" cache_flush;
    tc "cache: capacity working set hits" cache_working_set_fits;
    tc "cache: over-capacity cyclic thrash" cache_thrash_over_capacity;
    tc "cache: locate matches mod/div on all geometries" cache_locate_mask_matches_division;
    tc "cache: non-pow2 set count behaves" cache_non_pow2_behaviour;
    tc "tlb: page granularity" tlb_basic;
    tc "hierarchy: miss propagation" hierarchy_miss_propagation;
    tc "hierarchy: straddling access" hierarchy_straddling_access;
    tc "hierarchy: L2 absorbs L1 evictions" hierarchy_l2_catches_l1_evictions;
    tc "timing: monotone in misses" timing_monotone_in_misses;
    tc "timing: speedup signs" timing_speedup_signs;
    tc "timing: miss reduction" timing_miss_reduction;
    tc "timing: seconds scale" timing_seconds_scale;
    tc "cache/tlb: constructors reject bad geometry" constructors_reject_bad_geometry;
    tc "cache: fill/contains/flush with invalid ways" cache_invalid_ways;
    tc "cache: repeated line after an evicting fill" cache_repeat_after_fill;
    tc "hierarchy: access straddling address 0" hierarchy_straddles_zero;
    tc "hierarchy: wrapping access rejected" hierarchy_rejects_wrapping_access;
    tc "hierarchy: access allocates nothing" hierarchy_access_allocates_nothing;
    tc "hierarchy: tags allocated only for touched pages" hierarchy_allocates_touched_pages;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_cache_accounting; prop_cache_repeat_hits; prop_hierarchy_counter_order ]
  @ [
      tc "stream: push rejects before queueing" stream_rejects_at_push;
      tc "stream: helper failure re-raised at drain" stream_failure_reraised_at_drain;
      tc "stream: interpreter error returns the core" stream_interp_error_returns_core;
      tc "stream: miss-stream events on the helper's track" stream_events_on_helper_track;
    ]
