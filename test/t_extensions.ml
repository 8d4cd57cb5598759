(* Tests for the extension features: JSON emission, the IR pretty-printer,
   the next-line prefetcher, the sharded-free-list allocator backend and
   the profiler sampling option. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* ---------------- Json ---------------- *)

let json_scalars () =
  checks "null" "null" (Json.to_string Json.Null);
  checks "bool" "true" (Json.to_string (Json.Bool true));
  checks "int" "42" (Json.to_string (Json.Int 42));
  checks "float int" "2.0" (Json.to_string (Json.Float 2.0));
  checks "nan is null" "null" (Json.to_string (Json.Float Float.nan));
  checks "inf is null" "null" (Json.to_string (Json.Float Float.infinity))

let json_string_escaping () =
  checks "escapes" "\"a\\\"b\\\\c\\nd\"" (Json.to_string (Json.String "a\"b\\c\nd"));
  checks "control" "\"\\u0001\"" (Json.to_string (Json.String "\001"))

let json_compact_structures () =
  checks "list" "[1,2]" (Json.to_string ~pretty:false (Json.List [ Json.Int 1; Json.Int 2 ]));
  checks "obj" "{\"a\":1}" (Json.to_string ~pretty:false (Json.Obj [ ("a", Json.Int 1) ]));
  checks "empty" "[]" (Json.to_string (Json.List []));
  checks "empty obj" "{}" (Json.to_string (Json.Obj []))

let json_pretty_nests () =
  let s = Json.to_string (Json.Obj [ ("xs", Json.List [ Json.Int 1 ]) ]) in
  checkb "multiline" true (String.contains s '\n')

(* ---------------- Ir_print ---------------- *)

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let irprint_renders_sites () =
  let open Dsl in
  let p =
    program ~main:"main"
      [ func "main" [] [ malloc "x" (i 32); free_ (v "x") ] ]
  in
  let s = Ir_print.program_to_string p in
  checkb "mentions malloc with site" true (contains_sub s "malloc(32);  // site 0x");
  checkb "mentions free" true (contains_sub s "free(x);")

let irprint_roundtrippable_structure () =
  (* Not a parser roundtrip — just that every function appears. *)
  let w = Option.get (Workloads.find "povray") in
  let p = w.Workload.make Workload.Test in
  let s = Ir_print.program_to_string p in
  List.iter
    (fun f ->
      checkb ("contains " ^ f.Ir.fname) true (contains_sub s ("func " ^ f.Ir.fname)))
    (Ir.funcs p)

(* ---------------- prefetcher ---------------- *)

let prefetch_config () =
  { Hierarchy.xeon_w2195 with Hierarchy.prefetch = true }

let prefetch_sequential_wins () =
  (* A sequential sweep over 4x the L1: with prefetch, roughly half the
     demand misses disappear (next line is already resident). *)
  let run ~prefetch =
    let cfg = { Hierarchy.xeon_w2195 with Hierarchy.prefetch } in
    let h = Hierarchy.create ~config:cfg () in
    for k = 0 to (4 * 32 * 1024 / 64) - 1 do
      Hierarchy.access h (k * 64) 8
    done;
    (Hierarchy.counters h).Hierarchy.l1_misses
  in
  let without = run ~prefetch:false in
  let with_pf = run ~prefetch:true in
  checkb "sequential misses halved-ish" true
    (float_of_int with_pf < 0.6 *. float_of_int without)

let prefetch_counts_fills () =
  let h = Hierarchy.create ~config:(prefetch_config ()) () in
  Hierarchy.access h 0 8;
  let c = Hierarchy.counters h in
  checkb "prefetch issued" true (c.Hierarchy.prefetches >= 1)

let prefetch_off_by_default () =
  let h = Hierarchy.create () in
  Hierarchy.access h 0 8;
  checki "no prefetches" 0 (Hierarchy.counters h).Hierarchy.prefetches

let cache_fill_contains () =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~assoc:2 ~line_bytes:64 in
  checkb "absent" false (Cache.contains c 0);
  Cache.fill c 0;
  checkb "present after fill" true (Cache.contains c 0);
  checki "no counters touched" 0 (Cache.accesses c);
  checkb "demand access hits" true (Cache.access c 0)

(* ---------------- sharded backend ---------------- *)

let sharded_config () =
  { Group_alloc.default_config with Group_alloc.backend = Group_alloc.Sharded_free_lists }

let mk_galloc ?(config = Group_alloc.default_config) () =
  let vmem = Vmem.create () in
  let fallback = Jemalloc_sim.create vmem in
  let g =
    Group_alloc.create ~config ~classify:(fun ~size:_ -> Some 0) ~fallback vmem
  in
  (g, Group_alloc.iface g)

let sharded_reuses_freed () =
  let g, iface = mk_galloc ~config:(sharded_config ()) () in
  let keep = iface.Alloc_iface.malloc 32 in
  let a = iface.Alloc_iface.malloc 32 in
  ignore keep;
  iface.Alloc_iface.free a;
  let b = iface.Alloc_iface.malloc 32 in
  checki "region recycled in place" a b;
  checki "freelist reuse counted" 1 (Group_alloc.freelist_reuses g)

let sharded_exact_class_only () =
  let g, iface = mk_galloc ~config:(sharded_config ()) () in
  let keep = iface.Alloc_iface.malloc 32 in
  let a = iface.Alloc_iface.malloc 32 in
  ignore keep;
  iface.Alloc_iface.free a;
  (* different reserved size: must not reuse the 32-byte hole *)
  let b = iface.Alloc_iface.malloc 64 in
  checkb "no cross-class reuse" true (b <> a);
  checki "no freelist reuse" 0 (Group_alloc.freelist_reuses g)

let bump_never_reuses_freed_mid_chunk () =
  let g, iface = mk_galloc () in
  let keep = iface.Alloc_iface.malloc 32 in
  let a = iface.Alloc_iface.malloc 32 in
  ignore keep;
  iface.Alloc_iface.free a;
  let b = iface.Alloc_iface.malloc 32 in
  checkb "bump advances" true (b > a);
  checki "no freelist reuses under bump" 0 (Group_alloc.freelist_reuses g)

let sharded_reduces_footprint_under_churn () =
  (* Keep one pinned region per batch and churn the rest: bump leaks chunk
     space, sharding caps it. *)
  let churn config =
    let g, iface = mk_galloc ~config () in
    for _batch = 1 to 200 do
      ignore (iface.Alloc_iface.malloc 48 : Addr.t) (* pinned *);
      let tmp = Array.init 20 (fun _ -> iface.Alloc_iface.malloc 48) in
      Array.iter iface.Alloc_iface.free tmp
    done;
    (Group_alloc.frag_stats g).Group_alloc.peak_resident
  in
  let bump = churn { Group_alloc.default_config with Group_alloc.chunk_size = 65536 } in
  let sharded =
    churn
      { Group_alloc.default_config with
        Group_alloc.chunk_size = 65536;
        backend = Group_alloc.Sharded_free_lists }
  in
  checkb "sharded footprint smaller" true (sharded < bump)

let sharded_drained_chunk_safe () =
  (* When a chunk fully drains, its free-list entries must disappear or a
     later allocation would alias rewound bump space. *)
  let _, iface = mk_galloc ~config:(sharded_config ()) () in
  let a = iface.Alloc_iface.malloc 32 in
  let b = iface.Alloc_iface.malloc 32 in
  iface.Alloc_iface.free a;
  iface.Alloc_iface.free b;
  (* chunk drained -> rewound; now allocate twice: addresses must be
     distinct (no stale shard aliasing) *)
  let c = iface.Alloc_iface.malloc 32 in
  let d = iface.Alloc_iface.malloc 32 in
  checkb "no aliasing" true (c <> d)

let sharded_invariants_random_trace =
  QCheck2.Test.make ~name:"sharded backend: random trace keeps blocks disjoint"
    ~count:60
    QCheck2.Gen.(list_size (int_range 1 150) (pair (int_range 1 200) bool))
    (fun ops ->
      let _, iface = mk_galloc ~config:(sharded_config ()) () in
      let live = Hashtbl.create 64 in
      let order = ref [] in
      List.for_all
        (fun (size, do_free) ->
          if do_free && !order <> [] then begin
            match !order with
            | x :: rest ->
                order := rest;
                Hashtbl.remove live x;
                iface.Alloc_iface.free x;
                true
            | [] -> true
          end
          else begin
            let a = iface.Alloc_iface.malloc size in
            let ok =
              Hashtbl.fold
                (fun b bs acc -> acc && not (a < b + bs && b < a + size))
                live true
            in
            Hashtbl.replace live a size;
            order := a :: !order;
            ok
          end)
        ops)

(* ---------------- sampling profiler ---------------- *)

let sampling_reduces_observations () =
  let w = Option.get (Workloads.find "health") in
  let p = w.Workload.make Workload.Test in
  let full = Profiler.profile p in
  let sampled =
    Profiler.profile
      ~config:{ Profiler.default_config with Profiler.sample_period = 50 }
      p
  in
  checkb "fewer macro accesses" true
    (sampled.Profiler.total_accesses * 10 < full.Profiler.total_accesses);
  checkb "graph still non-empty" true
    (Affinity_graph.nodes sampled.Profiler.graph <> [])

let sampling_rejects_zero () =
  let w = Option.get (Workloads.find "ft") in
  checkb "raises" true
    (try
       ignore
         (Profiler.profile
            ~config:{ Profiler.default_config with Profiler.sample_period = 0 }
            (w.Workload.make Workload.Test));
       false
     with Invalid_argument _ -> true)

(* ---------------- memcheck mode ---------------- *)

let memcheck_clean_program_passes () =
  let open Dsl in
  let p =
    program ~main:"main"
      [ func "main" [] [ malloc "x" (i 64); store (v "x") (i 8) (i 1);
                         load "y" (v "x") (i 8) ] ]
  in
  let vmem = Vmem.create () in
  let alloc = Jemalloc_sim.create vmem in
  let t = Interp.create ~memcheck:vmem ~program:p ~alloc () in
  checki "clean run" 0 (Interp.run t)

let memcheck_catches_use_after_munmap () =
  let open Dsl in
  (* A large allocation is a dedicated mapping; free munmaps it; the later
     load must fault under memcheck. *)
  let p =
    program ~main:"main"
      [
        func "main" []
          [ malloc "x" (i 100_000); free_ (v "x"); load "y" (v "x") (i 0) ];
      ]
  in
  let vmem = Vmem.create () in
  let alloc = Jemalloc_sim.create vmem in
  let t = Interp.create ~memcheck:vmem ~program:p ~alloc () in
  checkb "segfault" true
    (try
       ignore (Interp.run t : int);
       false
     with Failure _ -> true)

let memcheck_catches_wild_pointer () =
  let open Dsl in
  let p =
    program ~main:"main" [ func "main" [] [ load "y" (i 0xDEAD000) (i 0) ] ]
  in
  let vmem = Vmem.create () in
  let alloc = Jemalloc_sim.create vmem in
  let t = Interp.create ~memcheck:vmem ~program:p ~alloc () in
  checkb "segfault" true
    (try
       ignore (Interp.run t : int);
       false
     with Failure _ -> true)

let memcheck_whole_suite_clean () =
  (* Every workload must be memory-clean at test scale: no access outside a
     live mapping. *)
  List.iter
    (fun w ->
      let vmem = Vmem.create () in
      let alloc = Jemalloc_sim.create vmem in
      let t =
        Interp.create ~seed:1 ~memcheck:vmem
          ~program:(w.Workload.make Workload.Test) ~alloc ()
      in
      ignore (Interp.run t : int))
    Workloads.all

(* ---------------- group colouring ---------------- *)

let coloring_offsets_groups () =
  let vmem = Vmem.create () in
  let fallback = Jemalloc_sim.create vmem in
  let next = ref 0 in
  let classify ~size:_ = Some !next in
  let config = { Group_alloc.default_config with Group_alloc.color_groups = true } in
  let g = Group_alloc.create ~config ~classify ~fallback vmem in
  let iface = Group_alloc.iface g in
  let a0 = iface.Alloc_iface.malloc 32 in
  next := 1;
  let a1 = iface.Alloc_iface.malloc 32 in
  next := 2;
  let a2 = iface.Alloc_iface.malloc 32 in
  let csize = Group_alloc.default_config.Group_alloc.chunk_size in
  let set_of a = a mod csize / 64 in
  checkb "groups start at different line offsets" true
    (set_of a0 <> set_of a1 && set_of a1 <> set_of a2)

let coloring_off_by_default () =
  let vmem = Vmem.create () in
  let fallback = Jemalloc_sim.create vmem in
  let g =
    Group_alloc.create ~classify:(fun ~size:_ -> Some 3) ~fallback vmem
  in
  let a = (Group_alloc.iface g).Alloc_iface.malloc 32 in
  let csize = Group_alloc.default_config.Group_alloc.chunk_size in
  checki "starts right after the header" 64 (a mod csize)

(* ---------------- train scale / selection ---------------- *)

let train_scale_between () =
  let w = Option.get (Workloads.find "art") in
  let run scale =
    let vmem = Vmem.create () in
    let alloc = Jemalloc_sim.create vmem in
    let t = Interp.create ~seed:1 ~program:(w.Workload.make scale) ~alloc () in
    ignore (Interp.run t : int);
    Interp.instructions t
  in
  let test = run Workload.Test and train = run Workload.Train and refi = run Workload.Ref in
  checkb "test < train" true (test < train);
  checkb "train < ref" true (train < refi)

let train_sites_match () =
  List.iter
    (fun w ->
      Alcotest.check (Alcotest.list Alcotest.int)
        (w.Workload.name ^ " train sites")
        (Ir.sites (w.Workload.make Workload.Test))
        (Ir.sites (w.Workload.make Workload.Train)))
    Workloads.all

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "json: scalars" json_scalars;
    tc "json: string escaping" json_string_escaping;
    tc "json: compact structures" json_compact_structures;
    tc "json: pretty printing" json_pretty_nests;
    tc "ir_print: renders sites" irprint_renders_sites;
    tc "ir_print: all functions rendered" irprint_roundtrippable_structure;
    tc "prefetch: sequential sweep benefits" prefetch_sequential_wins;
    tc "prefetch: fills counted" prefetch_counts_fills;
    tc "prefetch: off by default" prefetch_off_by_default;
    tc "cache: fill and contains" cache_fill_contains;
    tc "sharded: reuses freed regions" sharded_reuses_freed;
    tc "sharded: exact class only" sharded_exact_class_only;
    tc "sharded: bump never reuses mid-chunk" bump_never_reuses_freed_mid_chunk;
    tc "sharded: smaller footprint under churn" sharded_reduces_footprint_under_churn;
    tc "sharded: drained chunk safe" sharded_drained_chunk_safe;
    tc "sampling: reduces observations" sampling_reduces_observations;
    tc "sampling: rejects zero period" sampling_rejects_zero;
    tc "memcheck: clean program passes" memcheck_clean_program_passes;
    tc "memcheck: use after munmap faults" memcheck_catches_use_after_munmap;
    tc "memcheck: wild pointer faults" memcheck_catches_wild_pointer;
    tc "memcheck: all workloads memory-clean" memcheck_whole_suite_clean;
    tc "coloring: per-group offsets" coloring_offsets_groups;
    tc "coloring: off by default" coloring_off_by_default;
    tc "train: scale ordering" train_scale_between;
    tc "train: sites match test" train_sites_match;
  ]
  @ [ QCheck_alcotest.to_alcotest sharded_invariants_random_trace ]
