type kind =
  | Jemalloc
  | Ptmalloc
  | Halo
  | Halo_no_alloc
  | Hds
  | Hds_merged_packing
  | Random_pools of int
  | Ident_window of int

let kind_name = function
  | Jemalloc -> "jemalloc"
  | Ptmalloc -> "ptmalloc"
  | Halo -> "halo"
  | Halo_no_alloc -> "halo-no-alloc"
  | Hds -> "hds"
  | Hds_merged_packing -> "hds-merged"
  | Random_pools n -> Printf.sprintf "random-%d" n
  | Ident_window 1 -> "ident-site"
  | Ident_window n -> Printf.sprintf "ident-xor%d" n

type halo_details = {
  groups : int;
  monitored_sites : int;
  graph_nodes : int;
  frag : Group_alloc.frag_stats;
  grouped_mallocs : int;
  chunks_carved : int;
  chunk_reuses : int;
}

type hds_details = {
  pools : int;
  stream_count : int;
  selected_streams : int;
  trace_length : int;
  hds_coverage : float;
}

type measurement = {
  workload : string;
  kind : kind;
  instructions : int;
  counters : Hierarchy.counters;
  cycles : float;
  seconds : float;
  alloc_stats : Alloc_iface.stats;
  halo : halo_details option;
  hds : hds_details option;
}

let measure ?obs ~w ~kind ~seed ~alloc ~patches ?env ~halo ~hds () =
  let program = w.Workload.make Workload.Ref in
  let hier = Hierarchy.create ?obs () in
  let hooks =
    {
      Interp.no_hooks with
      Interp.on_access = (fun addr size _write -> Hierarchy.access hier addr size);
    }
  in
  let interp = Interp.create ~seed ~hooks ~patches ?env ?obs ~program ~alloc () in
  Obs.span obs "measurement"
    ~attrs:[ ("stage", Json.String "measurement") ]
    ~instructions:(fun () -> Interp.instructions interp)
    (fun () ->
      ignore (Interp.run interp : int);
      let c = Hierarchy.counters hier in
      Obs.add_attrs obs
        [
          ("accesses", Json.Int c.Hierarchy.accesses);
          ("l1_misses", Json.Int c.Hierarchy.l1_misses);
        ];
      (* Final cumulative counters, so the registry summary carries the
         hierarchy's end state alongside the sampled miss streams. *)
      Obs.count obs "cache.accesses" c.Hierarchy.accesses;
      Obs.count obs "cache.l1.misses" c.Hierarchy.l1_misses;
      Obs.count obs "cache.l2.misses" c.Hierarchy.l2_misses;
      Obs.count obs "cache.l3.misses" c.Hierarchy.l3_misses;
      Obs.count obs "cache.tlb.misses" c.Hierarchy.tlb_misses);
  let counters = Hierarchy.counters hier in
  let instructions = Interp.instructions interp in
  let model = Timing.skylake_sp in
  let cycles = Timing.cycles model ~instructions counters in
  let seconds = Timing.seconds model ~instructions counters in
  {
    workload = w.Workload.name;
    kind;
    instructions;
    counters;
    cycles;
    seconds;
    alloc_stats = alloc.Alloc_iface.stats ();
    halo = halo ();
    hds;
  }

let halo_pipeline_config pipeline_config w =
  let base = Option.value pipeline_config ~default:Pipeline.default_config in
  {
    base with
    Pipeline.grouping = w.Workload.halo_grouping base.Pipeline.grouping;
    allocator = w.Workload.halo_allocator base.Pipeline.allocator;
  }

let run_kind ?obs ~seed ?pipeline_config ?group_fn ?plan_source w kind =
  let no_halo () = None in
  match kind with
  | Jemalloc ->
      let vmem = Vmem.create () in
      measure ?obs ~w ~kind ~seed ~alloc:(Jemalloc_sim.create vmem) ~patches:[]
        ~halo:no_halo ~hds:None ()
  | Ptmalloc ->
      let vmem = Vmem.create () in
      measure ?obs ~w ~kind ~seed ~alloc:(Ptmalloc_sim.create vmem) ~patches:[]
        ~halo:no_halo ~hds:None ()
  | Random_pools pools ->
      (* Figure 15's strawman is "a variant of HALO with an extremely poor
         grouping algorithm": the same specialised allocator, classifying
         uniformly at random. *)
      let vmem = Vmem.create () in
      let fallback = Jemalloc_sim.create vmem in
      let rng = Rng.create ~seed:(seed * 7919) in
      let classify ~size:_ = Some (Rng.int rng pools) in
      let alloc_cfg = w.Workload.halo_allocator Group_alloc.default_config in
      let galloc =
        Group_alloc.create ~config:alloc_cfg ?obs ~classify ~fallback vmem
      in
      measure ?obs ~w ~kind ~seed ~alloc:(Group_alloc.iface galloc) ~patches:[]
        ~halo:no_halo ~hds:None ()
  | Halo | Halo_no_alloc ->
      let config = halo_pipeline_config pipeline_config w in
      let plan =
        Pipeline.plan ?obs ?source:plan_source ~config ?group_fn
          (w.Workload.make Workload.Test)
      in
      let vmem = Vmem.create () in
      let fallback = Jemalloc_sim.create vmem in
      if kind = Halo_no_alloc then
        (* Instrumented binary, default allocator: measures the overhead of
           the inserted set/unset-bit instructions alone. *)
        let env = Exec_env.create ~group_bits:(max plan.Pipeline.rewrite.Rewrite.nbits 1) () in
        measure ?obs ~w ~kind ~seed ~alloc:fallback
          ~patches:plan.Pipeline.rewrite.Rewrite.patches ~env ~halo:no_halo
          ~hds:None ()
      else begin
        let rt = Pipeline.instantiate ?obs plan ~fallback vmem in
        let galloc = rt.Pipeline.galloc in
        let halo () =
          Some
            {
              groups = Array.length plan.Pipeline.grouping.Grouping.groups;
              monitored_sites = plan.Pipeline.rewrite.Rewrite.nbits;
              graph_nodes =
                List.length
                  (Affinity_graph.nodes plan.Pipeline.profile.Profiler.graph);
              frag = Group_alloc.frag_stats galloc;
              grouped_mallocs = Group_alloc.grouped_mallocs galloc;
              chunks_carved = Group_alloc.chunks_carved galloc;
              chunk_reuses = Group_alloc.reuses galloc;
            }
        in
        measure ?obs ~w ~kind ~seed ~alloc:(Group_alloc.iface galloc)
          ~patches:rt.Pipeline.patches ~env:rt.Pipeline.env ~halo ~hds:None ()
      end
  | Ident_window window ->
      let config = halo_pipeline_config pipeline_config w in
      let profile =
        Profiler.profile ?obs ~config:config.Pipeline.profiler
          (w.Workload.make Workload.Test)
      in
      let min_edge_weight =
        max config.Pipeline.grouping.Grouping.min_edge_weight
          (int_of_float
             (config.Pipeline.min_edge_frac
             *. float_of_int profile.Profiler.total_accesses))
      in
      let params = { config.Pipeline.grouping with Grouping.min_edge_weight } in
      let nplan = Name_ident.plan ~params ~window profile in
      let vmem = Vmem.create () in
      let fallback = Jemalloc_sim.create vmem in
      let env = Exec_env.create () in
      let classify = Name_ident.classifier nplan ~env in
      let galloc =
        Group_alloc.create ~config:config.Pipeline.allocator ?obs ~classify
          ~fallback vmem
      in
      measure ?obs ~w ~kind ~seed ~alloc:(Group_alloc.iface galloc) ~patches:[]
        ~env ~halo:(fun () -> None) ~hds:None ()
  | Hds | Hds_merged_packing ->
      let hconfig =
        if kind = Hds_merged_packing then
          (* plan applies merging internally when asked *)
          { Hds_pipeline.default_config with Hds_pipeline.max_sets = None }
        else Hds_pipeline.default_config
      in
      let merge = kind = Hds_merged_packing in
      let hplan =
        Hds_pipeline.plan ~config:hconfig ~merge_identical:merge
          (w.Workload.make Workload.Test)
      in
      let vmem = Vmem.create () in
      let fallback = Jemalloc_sim.create vmem in
      let env = Exec_env.create () in
      let classify = Hds_pipeline.classifier hplan ~env in
      let alloc_cfg = w.Workload.halo_allocator Group_alloc.default_config in
      let galloc =
        Group_alloc.create ~config:alloc_cfg ?obs ~classify ~fallback vmem
      in
      let hds =
        Some
          {
            pools = Array.length hplan.Hds_pipeline.groups;
            stream_count = hplan.Hds_pipeline.stream_count;
            selected_streams = hplan.Hds_pipeline.selected_streams;
            trace_length = hplan.Hds_pipeline.trace_length;
            hds_coverage = hplan.Hds_pipeline.coverage;
          }
      in
      measure ?obs ~w ~kind ~seed ~alloc:(Group_alloc.iface galloc) ~patches:[]
        ~env ~halo:no_halo ~hds ()

let run ?obs ?(seed = 2) ?pipeline_config ?group_fn ?plan_source w kind =
  Obs.span obs "run"
    ~attrs:
      [
        ("workload", Json.String w.Workload.name);
        ("configuration", Json.String (kind_name kind));
        ("seed", Json.Int seed);
      ]
    (fun () -> run_kind ?obs ~seed ?pipeline_config ?group_fn ?plan_source w kind)

let to_json ?baseline m =
  let counters c =
    Json.Obj
      [
        ("accesses", Json.Int c.Hierarchy.accesses);
        ("l1_misses", Json.Int c.Hierarchy.l1_misses);
        ("l2_misses", Json.Int c.Hierarchy.l2_misses);
        ("l3_misses", Json.Int c.Hierarchy.l3_misses);
        ("tlb_misses", Json.Int c.Hierarchy.tlb_misses);
        ("prefetches", Json.Int c.Hierarchy.prefetches);
      ]
  in
  let halo =
    match m.halo with
    | None -> Json.Null
    | Some h ->
        Json.Obj
          [
            ("groups", Json.Int h.groups);
            ("monitored_sites", Json.Int h.monitored_sites);
            ("graph_nodes", Json.Int h.graph_nodes);
            ("grouped_mallocs", Json.Int h.grouped_mallocs);
            ("chunks_carved", Json.Int h.chunks_carved);
            ("chunk_reuses", Json.Int h.chunk_reuses);
            ("frag_pct", Json.Float h.frag.Group_alloc.frag_pct);
            ("frag_bytes", Json.Int h.frag.Group_alloc.frag_bytes);
            ("peak_resident", Json.Int h.frag.Group_alloc.peak_resident);
          ]
  in
  let hds =
    match m.hds with
    | None -> Json.Null
    | Some h ->
        Json.Obj
          [
            ("pools", Json.Int h.pools);
            ("candidate_streams", Json.Int h.stream_count);
            ("selected_streams", Json.Int h.selected_streams);
            ("trace_length", Json.Int h.trace_length);
            ("coverage", Json.Float h.hds_coverage);
          ]
  in
  let derived =
    match baseline with
    | None -> []
    | Some b ->
        [
          ("miss_reduction", Json.Float (Timing.miss_reduction
             ~baseline:b.counters.Hierarchy.l1_misses
             ~optimised:m.counters.Hierarchy.l1_misses));
          ("speedup", Json.Float (Timing.speedup ~baseline:b.cycles ~optimised:m.cycles));
        ]
  in
  Json.Obj
    ([
       ("workload", Json.String m.workload);
       ("configuration", Json.String (kind_name m.kind));
       ("instructions", Json.Int m.instructions);
       ("counters", counters m.counters);
       ("cycles", Json.Float m.cycles);
       ("sim_seconds", Json.Float m.seconds);
       ("mallocs", Json.Int m.alloc_stats.Alloc_iface.mallocs);
       ("frees", Json.Int m.alloc_stats.Alloc_iface.frees);
       ("peak_live_bytes", Json.Int m.alloc_stats.Alloc_iface.peak_live_bytes);
       ("halo", halo);
       ("hds", hds);
     ]
    @ derived)

let speedup_vs ~baseline m =
  Timing.speedup ~baseline:baseline.cycles ~optimised:m.cycles

let miss_reduction_vs ~baseline m =
  Timing.miss_reduction ~baseline:baseline.counters.Hierarchy.l1_misses
    ~optimised:m.counters.Hierarchy.l1_misses
