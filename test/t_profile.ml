(* Tests for halo_profile: Context interning, the Heap_model, the
   Affinity_queue (including the paper's Figure 5 example and each of the
   four constraints), the Affinity_graph and the Profiler. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* ---------------- Context ---------------- *)

let context_intern_dedup () =
  let t = Context.create () in
  let a = Context.intern t [| 1; 2; 3 |] in
  let b = Context.intern t [| 1; 2; 3 |] in
  let c = Context.intern t [| 1; 2 |] in
  checki "same sites same id" a b;
  checkb "different sites differ" true (a <> c);
  checki "count" 2 (Context.count t)

let context_alloc_site () =
  let t = Context.create () in
  let id = Context.intern t [| 10; 20; 30 |] in
  checki "innermost" 30 (Context.alloc_site t id)

let context_label () =
  let t = Context.create () in
  let id = Context.intern t [| 1; 2 |] in
  Alcotest.check Alcotest.string "rendered" "s1 -> s2"
    (Context.label t (fun s -> "s" ^ string_of_int s) id)

let context_ids_dense () =
  let t = Context.create () in
  for k = 0 to 99 do
    checki "dense ids" k (Context.intern t [| k |])
  done

let context_empty_rejected () =
  let t = Context.create () in
  checkb "raises" true
    (try
       ignore (Context.intern t [||]);
       false
     with Invalid_argument _ -> true)

(* ---------------- Heap_model ---------------- *)

let heap_find_containing () =
  let h = Heap_model.create () in
  let o = Heap_model.on_alloc h ~addr:1000 ~size:64 ~ctx:0 in
  checkb "base" true ((Option.get (Heap_model.find h 1000)).Heap_model.oid = o.Heap_model.oid);
  checkb "interior" true ((Option.get (Heap_model.find h 1063)).Heap_model.oid = o.Heap_model.oid);
  checkb "one past end" true (Heap_model.find h 1064 = None);
  checkb "before" true (Heap_model.find h 999 = None)

let heap_free_untracks () =
  let h = Heap_model.create () in
  ignore (Heap_model.on_alloc h ~addr:1000 ~size:16 ~ctx:0);
  checkb "freed returns obj" true (Heap_model.on_free h ~addr:1000 <> None);
  checkb "gone" true (Heap_model.find h 1000 = None);
  checkb "double free returns None" true (Heap_model.on_free h ~addr:1000 = None)

let heap_seq_monotone () =
  let h = Heap_model.create () in
  let a = Heap_model.on_alloc h ~addr:0x100 ~size:8 ~ctx:0 in
  let b = Heap_model.on_alloc h ~addr:0x200 ~size:8 ~ctx:1 in
  checkb "seq increases" true (b.Heap_model.seq > a.Heap_model.seq);
  checkb "oids distinct" true (a.Heap_model.oid <> b.Heap_model.oid)

let heap_addr_reuse_new_identity () =
  let h = Heap_model.create () in
  let a = Heap_model.on_alloc h ~addr:0x100 ~size:8 ~ctx:0 in
  ignore (Heap_model.on_free h ~addr:0x100);
  let b = Heap_model.on_alloc h ~addr:0x100 ~size:8 ~ctx:1 in
  checkb "fresh oid at reused address" true (a.Heap_model.oid <> b.Heap_model.oid);
  checki "resolves to new owner" b.Heap_model.oid
    (Option.get (Heap_model.find h 0x104)).Heap_model.oid

let heap_find_fast_paths_stay_coherent () =
  (* Hammer the granule directory: interleaved lookups across
     neighbouring objects, then a free, must never serve a stale
     object. *)
  let h = Heap_model.create () in
  let a = Heap_model.on_alloc h ~addr:0x1000 ~size:16 ~ctx:0 in
  let b = Heap_model.on_alloc h ~addr:0x1010 ~size:16 ~ctx:1 in
  let big = Heap_model.on_alloc h ~addr:0x9000 ~size:8192 ~ctx:2 in
  for _ = 1 to 3 do
    checki "a" a.Heap_model.oid (Option.get (Heap_model.find h 0x1008)).Heap_model.oid;
    checki "a again" a.Heap_model.oid
      (Option.get (Heap_model.find h 0x100f)).Heap_model.oid;
    checki "b" b.Heap_model.oid (Option.get (Heap_model.find h 0x1010)).Heap_model.oid;
    checki "big interior" big.Heap_model.oid
      (Option.get (Heap_model.find h 0xA123)).Heap_model.oid
  done;
  ignore (Heap_model.on_free h ~addr:0x1000);
  checkb "freed not served" true (Heap_model.find h 0x1008 = None);
  checki "neighbour survives" b.Heap_model.oid
    (Option.get (Heap_model.find h 0x1018)).Heap_model.oid;
  ignore (Heap_model.on_free h ~addr:0x9000);
  checkb "big freed" true (Heap_model.find h 0xA123 = None)

let heap_shared_granule_seeds_index () =
  (* Aligned objects own their granules, so each is freed through its
     base granule's cell and only the large one sits in the ordered map.
     An unaligned neighbour sharing a granule with one of them makes the
     map index every object, seeded from the cells: each earlier object
     must still be found and freed exactly. *)
  let h = Heap_model.create () in
  let objs =
    List.map
      (fun (addr, size) -> Heap_model.on_alloc h ~addr ~size ~ctx:0)
      [ (0x1000, 16); (0x1010, 24); (0x1040, 0); (0x1ff0, 64); (0x3000, 4096); (0x5000, 5000) ]
  in
  let exactly (o : Heap_model.obj) = function Some o' -> o' == o | None -> false in
  (* Granule 0x102 holds the second object's last 8 bytes and [n]. *)
  let n = Heap_model.on_alloc h ~addr:0x1028 ~size:8 ~ctx:1 in
  checki "live" 7 (Heap_model.live_count h);
  checkb "neighbour" true (exactly n (Heap_model.find h 0x102f));
  checkb "granule the neighbour took" true
    (exactly (List.nth objs 1) (Heap_model.find h 0x1020));
  checkb "between" true (Heap_model.find h 0x1030 = None);
  List.iter
    (fun (o : Heap_model.obj) ->
      let last = o.Heap_model.addr + Int.max o.Heap_model.size 1 - 1 in
      checkb "base" true (exactly o (Heap_model.find h o.Heap_model.addr));
      checkb "last byte" true (exactly o (Heap_model.find h last)))
    objs;
  List.iter
    (fun (o : Heap_model.obj) ->
      checkb "freed exactly" true (exactly o (Heap_model.on_free h ~addr:o.Heap_model.addr));
      checkb "gone" true (Heap_model.find h o.Heap_model.addr = None);
      checkb "double free" true (Heap_model.on_free h ~addr:o.Heap_model.addr = None))
    objs;
  checki "neighbour left" 1 (Heap_model.live_count h);
  checkb "neighbour survives" true (exactly n (Heap_model.find h 0x1028));
  checkb "neighbour freed" true (exactly n (Heap_model.on_free h ~addr:0x1028));
  checki "empty" 0 (Heap_model.live_count h)

let heap_context_links () =
  let h = Heap_model.create () in
  (* ctx 0 at seqs 0, 3, 6, 9; ctxs 1 and 2 in between *)
  let objs =
    Array.init 10 (fun k -> Heap_model.on_alloc h ~addr:(0x1000 + (k * 16)) ~size:8 ~ctx:(k mod 3))
  in
  let link k = (objs.(k).Heap_model.prev, objs.(k).Heap_model.next) in
  let pair = Alcotest.(pair int int) in
  Alcotest.check pair "seq 0" (-1, 3) (link 0);
  Alcotest.check pair "seq 3" (0, 6) (link 3);
  Alcotest.check pair "seq 6" (3, 9) (link 6);
  Alcotest.check pair "seq 9" (6, max_int) (link 9);
  Alcotest.check pair "ctx 1 at seq 1" (-1, 4) (link 1);
  (* Links outlive a free: chronology is immutable. *)
  ignore (Heap_model.on_free h ~addr:0x1030 : Heap_model.obj option);
  let o10 = Heap_model.on_alloc h ~addr:0x2000 ~size:8 ~ctx:0 in
  Alcotest.check pair "seq 9 once ctx 0 allocates again" (6, 10) (link 9);
  Alcotest.check pair "seq 10" (9, max_int) (o10.Heap_model.prev, o10.Heap_model.next)

let heap_negative_context_changes_nothing () =
  let h = Heap_model.create () in
  let a = Heap_model.on_alloc h ~addr:0x1000 ~size:8 ~ctx:0 in
  checkb "negative context raises" true
    (try
       ignore (Heap_model.on_alloc h ~addr:0x2000 ~size:8 ~ctx:(-1) : Heap_model.obj);
       false
     with Invalid_argument _ -> true);
  checkb "nothing tracked" true (Heap_model.find h 0x2000 = None);
  checki "live" 1 (Heap_model.live_count h);
  let b = Heap_model.on_alloc h ~addr:0x2000 ~size:8 ~ctx:0 in
  checki "no seq consumed" 1 b.Heap_model.seq;
  checki "ctx 0 linked past the rejected call" b.Heap_model.seq a.Heap_model.next

(* ---------------- Affinity_queue ---------------- *)

(* Harness: a heap with [n] objects of one size allocated round-robin
   across contexts, and a queue recording reported pairs. *)
let mk_queue ?(affinity_distance = 32) ?(nctx = 10) ?(n = 10) () =
  let heap = Heap_model.create () in
  let objs =
    Array.init n (fun k ->
        Heap_model.on_alloc heap ~addr:(0x1000 + (k * 64)) ~size:8 ~ctx:(k mod nctx))
  in
  let pairs = ref [] in
  let q =
    Affinity_queue.create ~affinity_distance ~heap
      ~on_affinity:(fun x y -> pairs := (x, y) :: !pairs)
      ()
  in
  (heap, objs, pairs, q)

let queue_figure5 () =
  (* Figure 5: 10 objects, 4-byte accesses, A = 32: the newest element is
     affinitive to exactly the seven others to its left. *)
  let _, objs, pairs, q = mk_queue ~affinity_distance:32 ~nctx:10 ~n:10 () in
  for k = 0 to 8 do
    ignore (Affinity_queue.add q objs.(k) ~bytes:4 : bool)
  done;
  pairs := [];
  ignore (Affinity_queue.add q objs.(9) ~bytes:4 : bool);
  checki "seven affinitive relationships" 7 (List.length !pairs);
  (* they are objects 2..8, i.e. contexts 2..8 *)
  let ys = List.map snd !pairs |> List.sort compare in
  Alcotest.check (Alcotest.list Alcotest.int) "partners" [ 2; 3; 4; 5; 6; 7; 8 ] ys

let queue_dedup_constraint () =
  (* Consecutive accesses to one object are a single macro access. *)
  let _, objs, pairs, q = mk_queue () in
  checkb "first recorded" true (Affinity_queue.add q objs.(0) ~bytes:8);
  checkb "repeat deduplicated" false (Affinity_queue.add q objs.(0) ~bytes:8);
  checki "accesses" 1 (Affinity_queue.accesses q);
  checki "no pairs" 0 (List.length !pairs)

let queue_no_self_affinity () =
  (* The same object re-accessed later (non-consecutively) must not pair
     with itself. *)
  let _, objs, pairs, q = mk_queue () in
  ignore (Affinity_queue.add q objs.(0) ~bytes:8 : bool);
  ignore (Affinity_queue.add q objs.(1) ~bytes:8 : bool);
  pairs := [];
  ignore (Affinity_queue.add q objs.(0) ~bytes:8 : bool);
  (* pairs with obj1 only, not with its own older entry *)
  checki "one pair" 1 (List.length !pairs);
  checkb "partner is obj1" true (snd (List.hd !pairs) = 1)

let queue_no_double_counting () =
  (* An object appearing twice in the window counts once per traversal. *)
  let _, objs, pairs, q = mk_queue ~affinity_distance:64 () in
  ignore (Affinity_queue.add q objs.(0) ~bytes:8 : bool);
  ignore (Affinity_queue.add q objs.(1) ~bytes:8 : bool);
  ignore (Affinity_queue.add q objs.(0) ~bytes:8 : bool);
  (* window: [0;1;0] *)
  pairs := [];
  ignore (Affinity_queue.add q objs.(2) ~bytes:8 : bool);
  let partners = List.map snd !pairs |> List.sort compare in
  Alcotest.check (Alcotest.list Alcotest.int) "0 counted once" [ 0; 1 ] partners

let queue_co_allocatability () =
  (* Objects u (ctx x) and v (ctx y) with an intervening allocation from x
     are not co-allocatable. *)
  let heap = Heap_model.create () in
  let v = Heap_model.on_alloc heap ~addr:0x1000 ~size:8 ~ctx:7 in
  (* intervening allocation from ctx 5 *)
  ignore (Heap_model.on_alloc heap ~addr:0x2000 ~size:8 ~ctx:5);
  let u = Heap_model.on_alloc heap ~addr:0x3000 ~size:8 ~ctx:5 in
  let pairs = ref [] in
  let q =
    Affinity_queue.create ~affinity_distance:64 ~heap
      ~on_affinity:(fun x y -> pairs := (x, y) :: !pairs)
      ()
  in
  ignore (Affinity_queue.add q v ~bytes:8 : bool);
  ignore (Affinity_queue.add q u ~bytes:8 : bool);
  checki "not co-allocatable" 0 (List.length !pairs)

let queue_co_allocatable_adjacent () =
  (* Chronologically adjacent allocations are co-allocatable. *)
  let heap = Heap_model.create () in
  let v = Heap_model.on_alloc heap ~addr:0x1000 ~size:8 ~ctx:7 in
  let u = Heap_model.on_alloc heap ~addr:0x3000 ~size:8 ~ctx:5 in
  let pairs = ref [] in
  let q =
    Affinity_queue.create ~affinity_distance:64 ~heap
      ~on_affinity:(fun x y -> pairs := (x, y) :: !pairs)
      ()
  in
  ignore (Affinity_queue.add q v ~bytes:8 : bool);
  ignore (Affinity_queue.add q u ~bytes:8 : bool);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "pair reported with newest first" [ (5, 7) ] !pairs

let queue_loop_edges_possible () =
  (* Distinct objects from one context produce (x, x). *)
  let heap = Heap_model.create () in
  let a = Heap_model.on_alloc heap ~addr:0x1000 ~size:8 ~ctx:3 in
  let b = Heap_model.on_alloc heap ~addr:0x2000 ~size:8 ~ctx:3 in
  let pairs = ref [] in
  let q =
    Affinity_queue.create ~affinity_distance:64 ~heap
      ~on_affinity:(fun x y -> pairs := (x, y) :: !pairs)
      ()
  in
  ignore (Affinity_queue.add q a ~bytes:8 : bool);
  ignore (Affinity_queue.add q b ~bytes:8 : bool);
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "loop pair" [ (3, 3) ] !pairs

let queue_window_trim () =
  let _, objs, _, q = mk_queue ~affinity_distance:32 () in
  for k = 0 to 9 do
    ignore (Affinity_queue.add q objs.(k) ~bytes:8 : bool)
  done;
  (* window is 32 bytes of 8-byte entries: at most ~4 live entries + the
     newest *)
  checkb "bounded" true (Affinity_queue.length q <= 6)

let queue_reentry_after_cut () =
  (* Object 0 leaves the window (cut while 1 is its newer neighbour), 1
     moves to the front, then 0 comes back: 0 is reported afresh, and
     relinking it must not follow its stale links into 1, whose older
     neighbour 2 stays in the window. *)
  let _, objs, pairs, q = mk_queue ~affinity_distance:32 () in
  let add k bytes = ignore (Affinity_queue.add q objs.(k) ~bytes : bool) in
  let pair_list = Alcotest.(list (pair int int)) in
  add 0 24;
  add 1 8;
  pairs := [];
  add 2 8;
  (* 0 is 32 bytes back: out *)
  Alcotest.check pair_list "0 left the window" [ (2, 1) ] !pairs;
  add 1 8;
  pairs := [];
  add 0 8;
  Alcotest.check pair_list "0 reported afresh, newest first" [ (0, 2); (0, 1) ] !pairs;
  pairs := [];
  add 3 8;
  Alcotest.check pair_list "old neighbours untouched" [ (3, 2); (3, 1); (3, 0) ] !pairs;
  checki "entries inside the window" 4 (Affinity_queue.length q)

let queue_rejects_bad_args () =
  checkb "bad distance" true
    (try
       ignore
         (Affinity_queue.create ~affinity_distance:0 ~heap:(Heap_model.create ())
            ~on_affinity:(fun _ _ -> ())
            ());
       false
     with Invalid_argument _ -> true)

(* ---------------- Affinity_graph ---------------- *)

let graph_weights_accumulate () =
  let gr = Affinity_graph.create () in
  Affinity_graph.add_affinity gr 1 2;
  Affinity_graph.add_affinity gr 2 1;
  checki "undirected accumulation" 2 (Affinity_graph.weight gr 1 2);
  Affinity_graph.add_affinity gr 3 3;
  checki "loop edge" 1 (Affinity_graph.weight gr 3 3)

let graph_access_counts () =
  let gr = Affinity_graph.create () in
  Affinity_graph.add_access gr 1;
  Affinity_graph.add_access gr 1;
  Affinity_graph.add_access gr 2;
  checki "node accesses" 2 (Affinity_graph.node_accesses gr 1);
  checki "total" 3 (Affinity_graph.total_accesses gr);
  checki "absent node" 0 (Affinity_graph.node_accesses gr 99)

let graph_filter_top () =
  let gr = Affinity_graph.create () in
  (* node 0: 90 accesses, node 1: 9, node 2: 1 *)
  for _ = 1 to 90 do Affinity_graph.add_access gr 0 done;
  for _ = 1 to 9 do Affinity_graph.add_access gr 1 done;
  Affinity_graph.add_access gr 2;
  Affinity_graph.add_affinity gr 0 1;
  Affinity_graph.add_affinity gr 0 2;
  let f = Affinity_graph.filter_top gr ~coverage:0.9 in
  Alcotest.check (Alcotest.list Alcotest.int) "hottest kept" [ 0 ]
    (Affinity_graph.nodes f);
  checki "edges to dropped nodes gone" 0 (Affinity_graph.weight f 0 1);
  checki "reported total preserved" 100 (Affinity_graph.total_accesses f)

let graph_filter_keeps_enough () =
  let gr = Affinity_graph.create () in
  for _ = 1 to 50 do Affinity_graph.add_access gr 0 done;
  for _ = 1 to 30 do Affinity_graph.add_access gr 1 done;
  for _ = 1 to 20 do Affinity_graph.add_access gr 2 done;
  let f = Affinity_graph.filter_top gr ~coverage:0.9 in
  (* 50 + 30 = 80 < 90: node 2 must also be kept *)
  checki "three nodes" 3 (List.length (Affinity_graph.nodes f))

let graph_prune_edges () =
  let gr = Affinity_graph.create () in
  Affinity_graph.add_access gr 1;
  Affinity_graph.add_access gr 2;
  for _ = 1 to 5 do Affinity_graph.add_affinity gr 1 2 done;
  Affinity_graph.add_affinity gr 1 1;
  let p = Affinity_graph.prune_edges gr ~min_weight:3 in
  checki "heavy edge kept" 5 (Affinity_graph.weight p 1 2);
  checki "light loop dropped" 0 (Affinity_graph.weight p 1 1)

let graph_subgraph_weight () =
  let gr = Affinity_graph.create () in
  Affinity_graph.add_affinity gr 1 2;
  Affinity_graph.add_affinity gr 2 3;
  Affinity_graph.add_affinity gr 1 1;
  checki "subgraph 1,2 includes loop" 2 (Affinity_graph.subgraph_weight gr [ 1; 2 ]);
  checki "all" 3 (Affinity_graph.subgraph_weight gr [ 1; 2; 3 ])

(* ---------------- Profiler (integration) ---------------- *)

let profiled_pair_program () =
  let open Dsl in
  program ~main:"main"
    [
      func "mk_a" [] [ malloc "p" (i 16); return_ (v "p") ];
      func "mk_b" [] [ malloc "p" (i 16); return_ (v "p") ];
      func "main" []
        ([
           call ~dst:"a0" "mk_a" [];
           call ~dst:"b0" "mk_b" [];
           call ~dst:"a1" "mk_a" [];
           call ~dst:"b1" "mk_b" [];
         ]
        @ for_ "t" ~from:(i 0) ~below:(i 50)
            [
              load "x" (v "a0") (i 0);
              load "y" (v "b0") (i 0);
              load "x2" (v "a1") (i 0);
              load "y2" (v "b1") (i 0);
            ]);
    ]

let profiler_finds_affinity () =
  let p = profiled_pair_program () in
  let r = Profiler.profile p in
  (* Four contexts: each of main's call sites yields a distinct full
     context, even though mk_a/mk_b each have one malloc site — exactly
     the full-context discrimination the paper relies on. *)
  checki "four graph nodes" 4 (List.length (Affinity_graph.nodes r.Profiler.graph));
  let edges = Affinity_graph.edges r.Profiler.graph in
  checkb "cross edge exists" true
    (List.exists (fun (x, y, w) -> x <> y && w > 10) edges);
  checkb "accesses recorded" true (r.Profiler.total_accesses > 100);
  checki "four tracked allocs" 4 r.Profiler.tracked_allocs

let profiler_ignores_large_objects () =
  let open Dsl in
  let p =
    program ~main:"main"
      [
        func "main" []
          [
            malloc "big" (i 100_000);
            load "x" (v "big") (i 0);
            load "y" (v "big") (i 64);
          ];
      ]
  in
  let r = Profiler.profile p in
  checki "nothing tracked" 0 r.Profiler.tracked_allocs;
  checki "no accesses attributed" 0 r.Profiler.total_accesses

let profiler_rejects_bad_config_first () =
  let obs = Obs.create () in
  let rejected config =
    try
      ignore (Profiler.profile ~obs ~config (profiled_pair_program ()) : Profiler.result);
      false
    with Invalid_argument _ -> true
  in
  let c = Profiler.default_config in
  checkb "sample_period 0" true (rejected { c with Profiler.sample_period = 0 });
  checkb "affinity_distance 0" true (rejected { c with Profiler.affinity_distance = 0 });
  checki "no run counted" 0
    (Metrics.counter_value (Metrics.counter (Obs.metrics obs) "profile.runs"))

(* A zero-byte load of a tracked object: the affinity queue rejects it
   on the helper as it does inline, the helper's failure reaches the
   caller, and its core comes back. *)
let profiler_helper_failure_reraised () =
  let program =
    Dsl.(
      program ~main:"main"
        [
          func "main" []
            [
              malloc "p" (i 64);
              store (v "p") (i 0) (i 1);
              load ~bytes:0 "x" (v "p") (i 0);
              return_ (i 0);
            ];
        ])
  in
  let before = Par.spare_cores () in
  List.iter
    (fun helper ->
      Alcotest.check_raises
        (Printf.sprintf "rejected, helper=%b" helper)
        (Invalid_argument "Affinity_queue.add: non-positive access size")
        (fun () -> ignore (Profiler.profile ~helper program : Profiler.result)))
    [ false; true ];
  checki "core returned" before (Par.spare_cores ())

let profiler_deterministic () =
  let p1 = Profiler.profile (profiled_pair_program ()) in
  let p2 = Profiler.profile (profiled_pair_program ()) in
  checki "same totals" p1.Profiler.total_accesses p2.Profiler.total_accesses;
  checki "same node count"
    (List.length (Affinity_graph.nodes p1.Profiler.graph))
    (List.length (Affinity_graph.nodes p2.Profiler.graph))

(* qcheck: queue window invariant — the sum of live entry sizes behind the
   newest never exceeds A + one entry. *)
let prop_queue_window =
  QCheck2.Test.make ~name:"affinity queue: window stays bounded by A" ~count:100
    QCheck2.Gen.(
      pair (int_range 8 256) (list_size (int_range 1 200) (int_range 0 19)))
    (fun (a, accesses) ->
      let heap = Heap_model.create () in
      let objs =
        Array.init 20 (fun k ->
            Heap_model.on_alloc heap ~addr:(0x1000 + (k * 64)) ~size:8 ~ctx:k)
      in
      let q =
        Affinity_queue.create ~affinity_distance:a ~heap
          ~on_affinity:(fun _ _ -> ())
          ()
      in
      List.for_all
        (fun k ->
          ignore (Affinity_queue.add q objs.(k) ~bytes:8 : bool);
          (* every entry is 8 bytes; the window holds at most A/8 entries
             beyond the newest, plus the boundary entry *)
          Affinity_queue.length q <= (a / 8) + 2)
        accesses)

(* ---------------- Profiler golden digests ---------------- *)

(* One digest per workload of everything [Profiler.profile] produces at
   Test scale under the default config: raw-graph nodes with their access
   counts, edges with their weights, macro accesses and tracked
   allocations. Hard literals, on purpose: a heap-model or affinity-queue
   rewrite that changes any reported pair, access or allocation flips a
   digest here. Re-record only when profiler semantics are meant to
   change. *)
let profile_digest (r : Profiler.result) =
  let g = r.Profiler.raw_graph in
  let b = Buffer.create 4096 in
  List.iter
    (fun x -> Printf.bprintf b "n%d:%d;" x (Affinity_graph.node_accesses g x))
    (List.sort compare (Affinity_graph.nodes g));
  List.iter
    (fun (x, y, w) -> Printf.bprintf b "e%d,%d:%d;" x y w)
    (List.sort compare (Affinity_graph.edges g));
  Printf.bprintf b "m%d;t%d" r.Profiler.total_accesses r.Profiler.tracked_allocs;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

let profiler_golden =
  [
    ("health", "cb2f33f26e914afb");
    ("ft", "a66c28dbab903dd2");
    ("analyzer", "c05b4111ddec422c");
    ("ammp", "befb6284f2d0bc08");
    ("art", "6555f03b0fb28907");
    ("equake", "bfd7738eabe7ff88");
    ("povray", "c089734ebd8c4c4c");
    ("omnetpp", "d5aee7556804a5f6");
    ("xalanc", "262d122927d9a857");
    ("leela", "67b739b49382a7b4");
    ("roms", "25f48f78ad5face9");
  ]

let profiler_golden_digest name expected () =
  let w = Option.get (Workloads.find name) in
  Alcotest.check Alcotest.string (name ^ " profile digest") expected
    (profile_digest (Profiler.profile (w.Workload.make Workload.Test)))

(* ---------------- Affinity_queue: interval enumeration ---------------- *)

let heap_oid_is_seq () =
  (* The queue reads an interval of sequence numbers as one of oids. *)
  let h = Heap_model.create () in
  let objs = ref [] in
  for k = 0 to 99 do
    let addr = 0x1000 + (k mod 7 * 64) in
    ignore (Heap_model.on_free h ~addr : Heap_model.obj option);
    if k mod 13 = 0 then
      checkb "negative context rejected" true
        (try
           ignore (Heap_model.on_alloc h ~addr ~size:8 ~ctx:(-1) : Heap_model.obj);
           false
         with Invalid_argument _ -> true);
    objs := Heap_model.on_alloc h ~addr ~size:8 ~ctx:(k mod 5) :: !objs
  done;
  List.iteri
    (fun i (o : Heap_model.obj) ->
      checki "seq in allocation order" (99 - i) o.seq;
      checki "oid = seq" o.seq o.oid)
    !objs

(* A heap with one 8-byte object per listed context, in order, and a
   queue recording pairs oldest first. *)
let interval_queue ~affinity_distance ctxs =
  let heap = Heap_model.create () in
  let objs =
    Array.of_list
      (List.mapi
         (fun k ctx -> Heap_model.on_alloc heap ~addr:(0x1000 + (k * 64)) ~size:8 ~ctx)
         ctxs)
  in
  let pairs = ref [] in
  let q =
    Affinity_queue.create ~affinity_distance ~heap
      ~on_affinity:(fun x y -> pairs := (x, y) :: !pairs)
      ()
  in
  let add k = ignore (Affinity_queue.add q objs.(k) ~bytes:8 : bool) in
  let added k =
    pairs := [];
    add k;
    List.rev !pairs
  in
  (objs, q, add, added)

let pair_list = Alcotest.(list (pair int int))

let queue_short_interval () =
  (* Context 0 allocates at seqs 2, 5 and 7, so object 5's partners lie
     in [2, 7], fewer oids than the window's 11 entries. They are
     reported by falling mark, not by seq; the context-1 objects around
     the interval are in the window but not co-allocatable. *)
  let objs, q, add, added =
    interval_queue ~affinity_distance:1024 [ 1; 1; 0; 2; 3; 0; 4; 0; 1; 1; 1; 1 ]
  in
  List.iter add [ 0; 1; 8; 9; 10; 11; 6; 3; 7; 2; 4 ];
  checki "window entries" 11 (Affinity_queue.length q);
  checkb "interval shorter than the window" true
    (objs.(5).Heap_model.next - objs.(5).Heap_model.prev < Affinity_queue.length q);
  Alcotest.check pair_list "partners by falling mark"
    [ (0, 3); (0, 0); (0, 0); (0, 2); (0, 4) ]
    (added 5)

let queue_interval_open_ends () =
  (* Object 1 is context 5's first allocation (prev = -1), so its
     interval starts at oid 0; object 7 is context 2's newest (next =
     max_int), so its interval ends at the largest oid pushed, 6. *)
  let objs, _, add, added =
    interval_queue ~affinity_distance:1024 [ 1; 5; 2; 5; 1; 1; 1; 2 ]
  in
  checki "first allocation" (-1) objs.(1).Heap_model.prev;
  checki "newest allocation" max_int objs.(7).Heap_model.next;
  List.iter add [ 0; 4; 5; 6; 2; 3 ];
  Alcotest.check pair_list "from oid 0" [ (5, 5); (5, 2); (5, 1) ] (added 1);
  Alcotest.check pair_list "up to the largest pushed oid" [ (2, 5); (2, 2); (2, 1) ]
    (added 7)

let queue_long_interval_walks () =
  (* Context 9's only object has the interval [0, 18], longer than the
     window's handful of entries, so the recency walk finds its
     partners: the newest object of each other context, while inside
     the window. *)
  let ctxs = List.init 19 (fun k -> k mod 4) @ [ 9 ] in
  let objs, q, add, added = interval_queue ~affinity_distance:32 ctxs in
  for k = 0 to 18 do
    add k
  done;
  checkb "interval longer than the window" true
    (Int.min objs.(19).Heap_model.next 18 - Int.max objs.(19).Heap_model.prev 0
    >= Affinity_queue.length q);
  Alcotest.check pair_list "partners" [ (9, 2); (9, 1); (9, 0) ] (added 19)

let queue_cut_object_found_by_interval () =
  (* Object 3 is cut from the list by a walk, comes back, and is then
     found by interval enumeration at its new mark; objects 7 and 1
     have stale marks outside the window. A walk after the enumeration
     still follows the uncut list. *)
  let _, _, add, added =
    interval_queue ~affinity_distance:64 [ 0; 1; 0; 2; 0; 3; 0; 4; 0; 5 ]
  in
  List.iter add [ 3; 1; 7; 5; 0; 8; 6; 2 ];
  Alcotest.check pair_list "walk cuts 3" [ (5, 0); (5, 3); (5, 4); (5, 1) ] (added 9);
  Alcotest.check pair_list "3 comes back" [ (2, 5); (2, 0); (2, 3); (2, 4) ] (added 3);
  Alcotest.check pair_list "enumeration over [2, 6]"
    [ (0, 2); (0, 0); (0, 0); (0, 3) ]
    (added 4);
  Alcotest.check pair_list "walk after enumeration" [ (1, 2); (1, 5); (1, 0); (1, 0) ]
    (added 1)

(* The profiler skips the lookup for an access inside the last object
   found; freeing that object must end this, since jemalloc hands its
   address to the next allocation of its size. *)
let profiler_repeat_filter_forgets_freed () =
  let open Dsl in
  let p =
    program ~main:"main"
      [
        func "mk_a" [] [ malloc "p" (i 16); return_ (v "p") ];
        func "mk_b" [] [ malloc "p" (i 16); return_ (v "p") ];
        func "main" []
          [
            call ~dst:"a" "mk_a" [];
            load "x" (v "a") (i 0);
            free_ (v "a");
            call ~dst:"b" "mk_b" [];
            load "y" (v "b") (i 8);
            realloc_ "c" (v "b") (i 16);
            load "z" (v "c") (i 0);
            return_ (i 0);
          ];
      ]
  in
  List.iter
    (fun helper ->
      let r = Profiler.profile ~helper p in
      let label s = Printf.sprintf "%s, helper=%b" s helper in
      checki (label "tracked") 3 r.Profiler.tracked_allocs;
      checki (label "one macro access per object") 3 r.Profiler.total_accesses)
    [ false; true ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "context: intern dedup" context_intern_dedup;
    tc "context: alloc site" context_alloc_site;
    tc "context: label" context_label;
    tc "context: dense ids" context_ids_dense;
    tc "context: empty rejected" context_empty_rejected;
    tc "heap: find containing object" heap_find_containing;
    tc "heap: free untracks" heap_free_untracks;
    tc "heap: sequence numbers monotone" heap_seq_monotone;
    tc "heap: address reuse gets fresh identity" heap_addr_reuse_new_identity;
    tc "heap: find fast paths stay coherent" heap_find_fast_paths_stay_coherent;
    tc "heap: context links" heap_context_links;
    tc "heap: negative context changes nothing" heap_negative_context_changes_nothing;
    tc "queue: Figure 5 example" queue_figure5;
    tc "queue: deduplication constraint" queue_dedup_constraint;
    tc "queue: no self-affinity" queue_no_self_affinity;
    tc "queue: no double counting" queue_no_double_counting;
    tc "queue: co-allocatability veto" queue_co_allocatability;
    tc "queue: adjacent allocations co-allocatable" queue_co_allocatable_adjacent;
    tc "queue: loop pairs for same context" queue_loop_edges_possible;
    tc "queue: window trimming" queue_window_trim;
    tc "queue: argument validation" queue_rejects_bad_args;
    tc "graph: weights accumulate undirected" graph_weights_accumulate;
    tc "graph: access counts" graph_access_counts;
    tc "graph: 90% node filter" graph_filter_top;
    tc "graph: filter keeps enough coverage" graph_filter_keeps_enough;
    tc "graph: edge pruning" graph_prune_edges;
    tc "graph: subgraph weight with loops" graph_subgraph_weight;
    tc "profiler: finds cross-context affinity" profiler_finds_affinity;
    tc "profiler: ignores objects over 4KiB" profiler_ignores_large_objects;
    tc "profiler: deterministic" profiler_deterministic;
    tc "profiler: bad config rejected before any work" profiler_rejects_bad_config_first;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_queue_window ]
  @ List.map
      (fun (name, d) ->
        tc ("profiler: golden digest " ^ name) (profiler_golden_digest name d))
      profiler_golden
  @ [
      tc "profiler: helper failure re-raised" profiler_helper_failure_reraised;
      tc "queue: an object cut from the window re-enters afresh" queue_reentry_after_cut;
      tc "heap: oid is the sequence number" heap_oid_is_seq;
      tc "queue: a short interval is enumerated" queue_short_interval;
      tc "queue: first and newest allocations bound the interval" queue_interval_open_ends;
      tc "queue: a long interval falls back to the walk" queue_long_interval_walks;
      tc "queue: a cut object comes back and is enumerated" queue_cut_object_found_by_interval;
      tc "profiler: the repeat filter forgets a freed object" profiler_repeat_filter_forgets_freed;
      tc "heap: a shared granule seeds the index" heap_shared_granule_seeds_index;
    ]
