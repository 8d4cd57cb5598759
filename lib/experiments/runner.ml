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
  (* The hierarchy runs on a helper domain when a core is spare. *)
  let interp =
    Hierarchy.Stream.run hier (fun stream ->
        let hooks =
          { Interp.no_hooks with Interp.on_access = Hierarchy.Stream.hook stream }
        in
        let interp =
          Interp.create ~seed ~hooks ~patches ?env ?obs ~program ~alloc ()
        in
        Obs.span obs "measurement"
          ~attrs:[ ("stage", Json.String "measurement") ]
          ~instructions:(fun () -> Interp.instructions interp)
          (fun () ->
            ignore (Interp.run interp : int);
            Hierarchy.Stream.drain stream;
            let c = Hierarchy.counters hier in
            Obs.add_attrs obs
              [
                ("accesses", Json.Int c.Hierarchy.accesses);
                ("l1_misses", Json.Int c.Hierarchy.l1_misses);
              ];
            (* Final cumulative counters, so the registry summary carries
               the hierarchy's end state alongside the sampled miss
               streams. *)
            Obs.count obs "cache.accesses" c.Hierarchy.accesses;
            Obs.count obs "cache.l1.misses" c.Hierarchy.l1_misses;
            Obs.count obs "cache.l2.misses" c.Hierarchy.l2_misses;
            Obs.count obs "cache.l3.misses" c.Hierarchy.l3_misses;
            Obs.count obs "cache.tlb.misses" c.Hierarchy.tlb_misses);
        interp)
  in
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
  Workload.pipeline_config w
    (Option.value pipeline_config ~default:Pipeline.default_config)

let plan_halo ?obs ?plan_source ?pipeline_config w =
  Pipeline.plan ?obs ?source:plan_source
    ~config:(halo_pipeline_config pipeline_config w)
    (w.Workload.make Workload.Test)

let plan_hds w = Hds_pipeline.plan (w.Workload.make Workload.Test)

type plan = Halo_plan of Pipeline.plan | Hds_plan of Hds_pipeline.plan

let halo_plan ?obs ?pipeline_config ?plan w =
  match plan with
  | None -> plan_halo ?obs ?pipeline_config w
  | Some (Halo_plan p) -> p
  | Some (Hds_plan _) -> invalid_arg "Runner.run: an HDS plan for a HALO kind"

let hds_plan ?plan w =
  match plan with
  | None -> plan_hds w
  | Some (Hds_plan p) -> p
  | Some (Halo_plan _) -> invalid_arg "Runner.run: a HALO plan for an HDS kind"

let run_kind ?obs ~seed ?pipeline_config ?plan w kind =
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
      let plan = halo_plan ?obs ?pipeline_config ?plan w in
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
      (* HALO's profile and grouping rule; only identification differs. *)
      let plan = halo_plan ?obs ?pipeline_config ?plan w in
      let profile = plan.Pipeline.profile in
      let nplan =
        Name_ident.plan
          ~params:(Pipeline.grouping_params plan.Pipeline.config profile)
          ~window profile
      in
      let vmem = Vmem.create () in
      let fallback = Jemalloc_sim.create vmem in
      let env = Exec_env.create () in
      let classify = Name_ident.classifier nplan ~env in
      let galloc =
        Group_alloc.create ~config:plan.Pipeline.config.Pipeline.allocator ?obs
          ~classify ~fallback vmem
      in
      measure ?obs ~w ~kind ~seed ~alloc:(Group_alloc.iface galloc) ~patches:[]
        ~env ~halo:no_halo ~hds:None ()
  | Hds | Hds_merged_packing ->
      let hplan = hds_plan ?plan w in
      let hplan =
        if kind = Hds_merged_packing then
          Hds_pipeline.repack ~merge_identical:true hplan
        else hplan
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

let run ?obs ?(seed = 2) ?pipeline_config ?plan w kind =
  Obs.span obs "run"
    ~attrs:
      [
        ("workload", Json.String w.Workload.name);
        ("configuration", Json.String (kind_name kind));
        ("seed", Json.Int seed);
      ]
    (fun () -> run_kind ?obs ~seed ?pipeline_config ?plan w kind)

let to_json ?baseline m =
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
       ("counters", Hierarchy.counters_to_json m.counters);
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
