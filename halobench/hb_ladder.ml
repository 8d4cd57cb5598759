(* The layer ladder: per-layer cost measured from outside the library.

   One program is replayed with one seed on a series of setups. Each
   setup adds one layer's public call to the previous one, so the time
   difference between consecutive setups, divided by the events that
   layer handled, is the layer's cost per event:

     bump        bare Interp on the Bump allocator
     jemalloc    swap in Jemalloc_sim                   -> alloc.jemalloc
     l1          + Cache.access on an L1 (Xeon geometry) -> cachesim.l1
     l2_l3       + L2 and L3 behind it                   -> cachesim.l2_l3
     hierarchy   Hierarchy.access instead (adds the TLB) -> cachesim.tlb
     heap_model  jemalloc + Context.intern + Heap_model  -> profile.heap_model
     queue       + Affinity_queue.add                    -> profile.affinity_queue
     graph       + the Affinity_graph callbacks          -> profile.affinity_graph
     patched     patched Interp (the plan's bits) on jemalloc
     group_alloc the same on the plan's Group_alloc      -> core.group_alloc

   Two exactness checks tie the ladder to the library: the l2_l3 setup's
   counters equal Hierarchy.counters of the hierarchy setup, and the
   graph setup's raw graph and macro-access count equal Profiler.profile's
   on the same program and seed. Only [Interp.run] is timed. *)

type setup =
  | Bump
  | Jemalloc
  | L1
  | L2_l3
  | Hierarchy_full
  | Heap_model_only
  | Queue
  | Graph
  | Patched
  | Group_alloc_full

let setups =
  [ Bump; Jemalloc; L1; L2_l3; Hierarchy_full; Heap_model_only; Queue; Graph; Patched; Group_alloc_full ]

let setup_name = function
  | Bump -> "bump"
  | Jemalloc -> "jemalloc"
  | L1 -> "l1"
  | L2_l3 -> "l2_l3"
  | Hierarchy_full -> "hierarchy"
  | Heap_model_only -> "heap_model"
  | Queue -> "queue"
  | Graph -> "graph"
  | Patched -> "patched"
  | Group_alloc_full -> "group_alloc"

(* Sums over every program of a ladder. *)
type totals = {
  mutable seconds : (setup * float) list;  (** Median trial time per setup. *)
  mutable events : int;  (** Loads + stores. *)
  mutable instructions : int;
  mutable alloc_ops : int;  (** mallocs + frees under jemalloc. *)
  mutable accesses : int;  (** on_access calls seen by the cache setups. *)
  mutable l1_misses : int;
  mutable l2_misses : int;
  mutable l3_misses : int;
  mutable tlb_misses : int;
  mutable raw_heap_accesses : int;  (** Accesses that hit a tracked object. *)
  mutable macro_accesses : int;
  mutable contexts : int;
  mutable tracked_allocs : int;
  mutable grouped_mallocs : int;
  mutable chunks_carved : int;
  mutable failures : string list;  (** Exactness-check violations. *)
}

let halo_config (w : Workload.t) =
  let base = Pipeline.default_config in
  {
    base with
    Pipeline.grouping = w.Workload.halo_grouping base.Pipeline.grouping;
    allocator = w.Workload.halo_allocator base.Pipeline.allocator;
  }

let xeon = Hierarchy.xeon_w2195

let run_interp ?hooks ?patches ?env ~seed ~alloc program =
  let i = Interp.create ~seed ?hooks ?patches ?env ~program ~alloc () in
  let (_ : int), s = Hb_common.timed (fun () -> Interp.run i) in
  (i, s)

let new_cache name size assoc =
  Cache.create ~name ~size_bytes:size ~assoc ~line_bytes:xeon.Hierarchy.line_bytes

(* What one trial of one setup leaves behind besides its time. *)
type trial = {
  t_seconds : float;
  t_interp : Interp.t;
  t_jemalloc_stats : Alloc_iface.stats option;
  t_caches : (int * int * int * int) option;  (** accesses, l1, l2, l3 misses *)
  t_hier : Hierarchy.counters option;
  t_profile : (Affinity_graph.t * int * int * int * int) option;
      (** raw graph, macro accesses, raw heap accesses, contexts, tracked *)
  t_galloc : Group_alloc.t option;
}

let trial0 s i =
  {
    t_seconds = s;
    t_interp = i;
    t_jemalloc_stats = None;
    t_caches = None;
    t_hier = None;
    t_profile = None;
    t_galloc = None;
  }

(* The profiler's own hook code, cut off after [level] layers: 1 = heap
   model only, 2 = + affinity queue, 3 = + graph (the full profiler). *)
let run_profile_level ~level ~seed program =
  let cfg = Profiler.default_config in
  let vmem = Vmem.create () in
  let alloc = Jemalloc_sim.create vmem in
  let contexts = Context.create () in
  let heap = Heap_model.create () in
  let graph = Affinity_graph.create () in
  let on_affinity =
    if level >= 3 then fun x y -> Affinity_graph.add_affinity graph x y
    else fun _ _ -> ()
  in
  let queue =
    Affinity_queue.create ~affinity_distance:cfg.Profiler.affinity_distance ~heap
      ~on_affinity ()
  in
  let tracked = ref 0 in
  let raw = ref 0 in
  let last_sites = ref [||] and last_cid = ref (-1) in
  let track addr size ctx_sites =
    if size <= cfg.Profiler.max_tracked_size then begin
      let cid =
        if ctx_sites == !last_sites then !last_cid
        else begin
          let cid = Context.intern contexts ctx_sites in
          last_sites := ctx_sites;
          last_cid := cid;
          cid
        end
      in
      ignore (Heap_model.on_alloc heap ~addr ~size ~ctx:cid : Heap_model.obj);
      incr tracked
    end
  in
  let on_access =
    match level with
    | 1 -> fun addr _ _ -> ignore (Heap_model.find heap addr : Heap_model.obj option)
    | 2 -> (
        fun addr size _ ->
          match Heap_model.find heap addr with
          | None -> ()
          | Some o ->
              incr raw;
              ignore (Affinity_queue.add queue o ~bytes:size : bool))
    | _ -> (
        fun addr size _ ->
          match Heap_model.find heap addr with
          | None -> ()
          | Some o ->
              incr raw;
              if Affinity_queue.add queue o ~bytes:size then
                Affinity_graph.add_access graph o.Heap_model.ctx)
  in
  let hooks =
    {
      Interp.on_access;
      on_alloc = (fun addr size _site ctx -> track addr size ctx);
      on_realloc =
        (fun old_addr addr size _site ctx ->
          ignore (Heap_model.on_free heap ~addr:old_addr : Heap_model.obj option);
          track addr size ctx);
      on_free =
        (fun addr -> ignore (Heap_model.on_free heap ~addr : Heap_model.obj option));
    }
  in
  let i, s = run_interp ~hooks ~seed ~alloc program in
  {
    (trial0 s i) with
    t_profile =
      Some (graph, Affinity_queue.accesses queue, !raw, Context.count contexts, !tracked);
  }

let run_setup ~seed ~plan program = function
  | Bump ->
      let i, s = run_interp ~seed ~alloc:(Bump.create (Vmem.create ())) program in
      trial0 s i
  | Jemalloc ->
      let alloc = Jemalloc_sim.create (Vmem.create ()) in
      let i, s = run_interp ~seed ~alloc program in
      { (trial0 s i) with t_jemalloc_stats = Some (alloc.Alloc_iface.stats ()) }
  | (L1 | L2_l3) as which ->
      let line = xeon.Hierarchy.line_bytes in
      let l1 = new_cache "L1D" xeon.Hierarchy.l1_size xeon.Hierarchy.l1_assoc in
      let l2 = new_cache "L2" xeon.Hierarchy.l2_size xeon.Hierarchy.l2_assoc in
      let l3 = new_cache "L3" xeon.Hierarchy.l3_size xeon.Hierarchy.l3_assoc in
      let accesses = ref 0 in
      let on_access =
        if which = L1 then fun addr size _ ->
          incr accesses;
          let last = Addr.align_down (addr + size - 1) line in
          let a = ref (Addr.align_down addr line) in
          while !a <= last do
            ignore (Cache.access l1 !a : bool);
            a := !a + line
          done
        else fun addr size _ ->
          incr accesses;
          let last = Addr.align_down (addr + size - 1) line in
          let a = ref (Addr.align_down addr line) in
          while !a <= last do
            if not (Cache.access l1 !a) then
              if not (Cache.access l2 !a) then ignore (Cache.access l3 !a : bool);
            a := !a + line
          done
      in
      let hooks = { Interp.no_hooks with Interp.on_access } in
      let alloc = Jemalloc_sim.create (Vmem.create ()) in
      let i, s = run_interp ~hooks ~seed ~alloc program in
      {
        (trial0 s i) with
        t_caches = Some (!accesses, Cache.misses l1, Cache.misses l2, Cache.misses l3);
      }
  | Hierarchy_full ->
      let h = Hierarchy.create () in
      let hooks =
        { Interp.no_hooks with Interp.on_access = (fun a sz _ -> Hierarchy.access h a sz) }
      in
      let alloc = Jemalloc_sim.create (Vmem.create ()) in
      let i, s = run_interp ~hooks ~seed ~alloc program in
      { (trial0 s i) with t_hier = Some (Hierarchy.counters h) }
  | Heap_model_only -> run_profile_level ~level:1 ~seed program
  | Queue -> run_profile_level ~level:2 ~seed program
  | Graph -> run_profile_level ~level:3 ~seed program
  | Patched ->
      let rw = plan.Pipeline.rewrite in
      let env = Exec_env.create ~group_bits:(max rw.Rewrite.nbits 1) () in
      let alloc = Jemalloc_sim.create (Vmem.create ()) in
      let i, s = run_interp ~patches:rw.Rewrite.patches ~env ~seed ~alloc program in
      trial0 s i
  | Group_alloc_full ->
      let vmem = Vmem.create () in
      let fallback = Jemalloc_sim.create vmem in
      let rt = Pipeline.instantiate plan ~fallback vmem in
      let i, s =
        run_interp ~patches:rt.Pipeline.patches ~env:rt.Pipeline.env ~seed
          ~alloc:(Group_alloc.iface rt.Pipeline.galloc) program
      in
      { (trial0 s i) with t_galloc = Some rt.Pipeline.galloc }

let create_totals () =
  {
    seconds = List.map (fun s -> (s, 0.0)) setups;
    events = 0;
    instructions = 0;
    alloc_ops = 0;
    accesses = 0;
    l1_misses = 0;
    l2_misses = 0;
    l3_misses = 0;
    tlb_misses = 0;
    raw_heap_accesses = 0;
    macro_accesses = 0;
    contexts = 0;
    tracked_allocs = 0;
    grouped_mallocs = 0;
    chunks_carved = 0;
    failures = [];
  }

let sorted_edges g = List.sort compare (Affinity_graph.edges g)

let sorted_nodes g =
  List.sort compare
    (List.map (fun n -> (n, Affinity_graph.node_accesses g n)) (Affinity_graph.nodes g))

(* Replay [program] (of workload [w]) [trials] times on every setup,
   interleaving setups within a trial so slow phases of the machine
   spread over all of them, and fold the per-setup median into [tot]. *)
let add_program tot ~trials ~seed (w : Workload.t) program =
  let name = w.Workload.name in
  let fail fmt = Printf.ksprintf (fun m -> tot.failures <- (name ^ ": " ^ m) :: tot.failures) fmt in
  let reference =
    Profiler.profile ~config:{ Profiler.default_config with Profiler.seed } program
  in
  let plan = Pipeline.derive ~config:(halo_config w) reference in
  let times = Hashtbl.create 16 in
  let last = Hashtbl.create 16 in
  for _ = 1 to trials do
    List.iter
      (fun st ->
        let t = run_setup ~seed ~plan program st in
        Hashtbl.replace times st
          (t.t_seconds :: Option.value ~default:[] (Hashtbl.find_opt times st));
        Hashtbl.replace last st t)
      setups
  done;
  tot.seconds <-
    List.map (fun (st, s) -> (st, s +. Hb_common.median (Hashtbl.find times st))) tot.seconds;
  let get st = Hashtbl.find last st in
  let bare = (get Bump).t_interp in
  let loads, stores = Interp.load_store_counts bare in
  tot.events <- tot.events + loads + stores;
  tot.instructions <- tot.instructions + Interp.instructions bare;
  (match (get Jemalloc).t_jemalloc_stats with
  | Some st -> tot.alloc_ops <- tot.alloc_ops + st.Alloc_iface.mallocs + st.Alloc_iface.frees
  | None -> ());
  (match ((get L2_l3).t_caches, (get Hierarchy_full).t_hier) with
  | Some (acc, l1, l2, l3), Some h ->
      if
        acc <> h.Hierarchy.accesses || l1 <> h.Hierarchy.l1_misses
        || l2 <> h.Hierarchy.l2_misses || l3 <> h.Hierarchy.l3_misses
      then
        fail "l2_l3 counters (%d, %d, %d, %d) differ from Hierarchy.counters (%d, %d, %d, %d)"
          acc l1 l2 l3 h.Hierarchy.accesses h.Hierarchy.l1_misses h.Hierarchy.l2_misses
          h.Hierarchy.l3_misses;
      if acc <> loads + stores then fail "cache setup saw %d accesses, bare run %d" acc (loads + stores);
      tot.accesses <- tot.accesses + acc;
      tot.l1_misses <- tot.l1_misses + l1;
      tot.l2_misses <- tot.l2_misses + l2;
      tot.l3_misses <- tot.l3_misses + l3;
      tot.tlb_misses <- tot.tlb_misses + h.Hierarchy.tlb_misses
  | _ -> fail "cache setups left no counters");
  (match (get Graph).t_profile with
  | Some (graph, macro, raw, contexts, tracked) ->
      let r = reference in
      if macro <> r.Profiler.total_accesses then
        fail "graph setup saw %d macro accesses, Profiler.profile %d" macro r.Profiler.total_accesses;
      if tracked <> r.Profiler.tracked_allocs then
        fail "graph setup tracked %d allocations, Profiler.profile %d" tracked r.Profiler.tracked_allocs;
      if contexts <> Context.count r.Profiler.contexts then
        fail "graph setup interned %d contexts, Profiler.profile %d" contexts
          (Context.count r.Profiler.contexts);
      if sorted_nodes graph <> sorted_nodes r.Profiler.raw_graph
         || sorted_edges graph <> sorted_edges r.Profiler.raw_graph
      then fail "graph setup's raw affinity graph differs from Profiler.profile's";
      tot.raw_heap_accesses <- tot.raw_heap_accesses + raw;
      tot.macro_accesses <- tot.macro_accesses + macro;
      tot.contexts <- tot.contexts + contexts;
      tot.tracked_allocs <- tot.tracked_allocs + tracked
  | None -> fail "graph setup left no profile");
  match (get Group_alloc_full).t_galloc with
  | Some g ->
      tot.grouped_mallocs <- tot.grouped_mallocs + Group_alloc.grouped_mallocs g;
      tot.chunks_carved <- tot.chunks_carved + Group_alloc.chunks_carved g
  | None -> ()

let secs tot st = List.assoc st tot.seconds

(* ns per unit of the difference between two setups. *)
let delta_ns tot ~from ~to_ per =
  if per = 0 then 0.0 else (secs tot to_ -. secs tot from) *. 1e9 /. float_of_int per

(* Per-layer values, named as the benchmark's per-layer metrics. *)
let metrics tot =
  let f = float_of_int in
  [
    ("vm.ns_per_event", if tot.events = 0 then 0.0 else secs tot Bump *. 1e9 /. f tot.events);
    ("vm.events", f tot.events);
    ("vm.instructions", f tot.instructions);
    ("alloc.jemalloc.ns_per_op", delta_ns tot ~from:Bump ~to_:Jemalloc tot.alloc_ops);
    ("alloc.ops", f tot.alloc_ops);
    ("core.group_alloc.ns_per_op", delta_ns tot ~from:Patched ~to_:Group_alloc_full tot.alloc_ops);
    ("core.group_alloc.grouped_mallocs", f tot.grouped_mallocs);
    ("core.group_alloc.chunks_carved", f tot.chunks_carved);
    ("cachesim.l1.ns_per_access", delta_ns tot ~from:Jemalloc ~to_:L1 tot.accesses);
    ("cachesim.l2_l3.ns_per_access", delta_ns tot ~from:L1 ~to_:L2_l3 tot.accesses);
    ("cachesim.tlb.ns_per_access", delta_ns tot ~from:L2_l3 ~to_:Hierarchy_full tot.accesses);
    ("profile.heap_model.ns_per_event", delta_ns tot ~from:Jemalloc ~to_:Heap_model_only tot.events);
    ("profile.affinity_queue.ns_per_event", delta_ns tot ~from:Heap_model_only ~to_:Queue tot.events);
    ("profile.affinity_graph.ns_per_event", delta_ns tot ~from:Queue ~to_:Graph tot.events);
    ("profile.macro_accesses", f tot.macro_accesses);
    ("profile.contexts", f tot.contexts);
    ("profile.tracked_allocs", f tot.tracked_allocs);
    ( "profile.dedup_ratio",
      if tot.raw_heap_accesses = 0 then 0.0 else f tot.macro_accesses /. f tot.raw_heap_accesses );
  ]

let print tot =
  let t =
    Table.create ~title:"layer ladder (median trial, summed over programs)"
      ~headers:[ "setup"; "seconds" ] ()
  in
  Table.set_aligns t [ Table.Left; Table.Right ];
  List.iter (fun (st, s) -> Table.add_row t [ setup_name st; Printf.sprintf "%.4f" s ]) tot.seconds;
  prerr_string (Table.render t);
  prerr_newline ()
