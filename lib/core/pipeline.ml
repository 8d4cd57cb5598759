type config = {
  profiler : Profiler.config;
  grouping : Grouping.params;
  min_edge_frac : float;
  allocator : Group_alloc.config;
}

let default_config =
  {
    profiler = Profiler.default_config;
    grouping = Grouping.default_params;
    min_edge_frac = 1e-4;
    allocator = Group_alloc.default_config;
  }

type plan = {
  config : config;
  profile : Profiler.result;
  grouping : Grouping.t;
  selectors : Identify.selector list;
  rewrite : Rewrite.t;
}

let grouping_params (config : config) (profile : Profiler.result) =
  let min_edge_weight =
    max config.grouping.Grouping.min_edge_weight
      (int_of_float
         (config.min_edge_frac *. float_of_int profile.Profiler.total_accesses))
  in
  { config.grouping with Grouping.min_edge_weight }

let derive ?obs ?(config = default_config) ?(group_fn = Grouping.group)
    (profile : Profiler.result) =
  let gparams = grouping_params config profile in
  let grouping =
    Obs.span obs "grouping" ~attrs:[ ("stage", Json.String "grouping") ]
      (fun () ->
        let g = group_fn profile.Profiler.graph gparams in
        Obs.add_attrs obs
          [
            ("groups", Json.Int (Array.length g.Grouping.groups));
            ("min_edge_weight", Json.Int gparams.Grouping.min_edge_weight);
          ];
        g)
  in
  let selectors =
    Obs.span obs "identification"
      ~attrs:[ ("stage", Json.String "identification") ]
      (fun () ->
        let sels = Identify.build ~contexts:profile.Profiler.contexts ~grouping in
        Obs.add_attrs obs
          [
            ("selectors", Json.Int (List.length sels));
            ( "monitored_sites",
              Json.Int (List.length (Identify.monitored_sites sels)) );
          ];
        sels)
  in
  let rewrite =
    Obs.span obs "rewrite" ~attrs:[ ("stage", Json.String "rewrite") ]
      (fun () ->
        let r = Rewrite.plan selectors in
        Obs.add_attrs obs
          [
            ("bits", Json.Int r.Rewrite.nbits);
            ("patches", Json.Int (List.length r.Rewrite.patches));
          ];
        r)
  in
  { config; profile; grouping; selectors; rewrite }

type plan_source = {
  lookup : Obs.t option -> Ir.program -> config -> plan option;
  store : Obs.t option -> Ir.program -> config -> plan -> unit;
}

let plan ?obs ?source ?(config = default_config) program =
  let compute () =
    derive ?obs ~config (Profiler.profile ?obs ~config:config.profiler program)
  in
  match source with
  | None -> compute ()
  | Some s -> (
      match s.lookup obs program config with
      | Some p -> p
      | None ->
          let p = compute () in
          s.store obs program config p;
          p)

type runtime = {
  env : Exec_env.t;
  galloc : Group_alloc.t;
  patches : (Ir.site * int) list;
}

let instantiate ?obs plan ~fallback vmem =
  Obs.span obs "allocator-synthesis"
    ~attrs:[ ("stage", Json.String "allocator-synthesis") ]
    (fun () ->
      let alloc_cfg = plan.config.allocator in
      let env =
        Exec_env.create ~group_bits:(max plan.rewrite.Rewrite.nbits 1) ()
      in
      let classify ~size:_ =
        Rewrite.classify plan.rewrite env.Exec_env.group_state
      in
      let galloc =
        Group_alloc.create ~config:alloc_cfg ?obs ~classify ~fallback vmem
      in
      Obs.add_attrs obs
        [
          ("groups", Json.Int (Array.length plan.grouping.Grouping.groups));
          ("chunk_size", Json.Int alloc_cfg.Group_alloc.chunk_size);
        ];
      { env; galloc; patches = plan.rewrite.Rewrite.patches })

let graph_dot plan ~site_label =
  let g = plan.profile.Profiler.graph in
  let contexts = plan.profile.Profiler.contexts in
  let nodes =
    List.map
      (fun id ->
        {
          Dot.id;
          label = Context.label contexts site_label id;
          group = Grouping.group_of plan.grouping id;
          accesses = Affinity_graph.node_accesses g id;
        })
      (Affinity_graph.nodes g)
  in
  let edges =
    List.map
      (fun (x, y, w) -> { Dot.src = x; dst = y; weight = w })
      (Affinity_graph.edges g)
  in
  Dot.render ~name:"halo-affinity" nodes edges

let describe plan ~site_label =
  let buf = Buffer.create 1024 in
  let contexts = plan.profile.Profiler.contexts in
  let g = plan.profile.Profiler.graph in
  Buffer.add_string buf
    (Printf.sprintf
       "profile: %d tracked allocs, %d macro accesses, %d contexts, %d graph nodes\n"
       plan.profile.Profiler.tracked_allocs plan.profile.Profiler.total_accesses
       (Context.count contexts)
       (List.length (Affinity_graph.nodes g)));
  Array.iteri
    (fun gi members ->
      Buffer.add_string buf
        (Printf.sprintf "group %d (accesses=%d, weight=%d):\n" gi
           plan.grouping.Grouping.group_accesses.(gi)
           plan.grouping.Grouping.group_weights.(gi));
      List.iter
        (fun c ->
          Buffer.add_string buf
            (Printf.sprintf "  ctx %d: %s\n" c (Context.label contexts site_label c)))
        members)
    plan.grouping.Grouping.groups;
  List.iter
    (fun (sel : Identify.selector) ->
      Buffer.add_string buf (Printf.sprintf "selector for group %d:\n" sel.group);
      List.iter
        (fun conj ->
          Buffer.add_string buf
            (Printf.sprintf "  [%s]\n"
               (String.concat " && " (List.map site_label conj))))
        sel.disjuncts)
    plan.selectors;
  Buffer.add_string buf
    (Printf.sprintf "monitored sites: %s\n"
       (String.concat ", "
          (List.map site_label (Identify.monitored_sites plan.selectors))));
  Buffer.contents buf
