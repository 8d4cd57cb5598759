type config = {
  affinity_distance : int;
  max_tracked_size : int;
  node_coverage : float;
  seed : int;
  sample_period : int;
}

let default_config =
  {
    affinity_distance = 128;
    max_tracked_size = 4096;
    node_coverage = 0.9;
    seed = 1;
    sample_period = 1;
  }

type result = {
  graph : Affinity_graph.t;
  raw_graph : Affinity_graph.t;
  contexts : Context.table;
  total_accesses : int;
  tracked_allocs : int;
  instructions : int;
}

(* Affinity-queue pressure: depth histogram every [depth_sample] macro
   accesses, one trace series point every [series_sample]. Powers of two so
   the sampling test is a land. *)
let depth_sample = 64
let series_sample = 4096

let profile ?obs ?(config = default_config) program =
  if config.sample_period < 1 then
    invalid_arg "Profiler.profile: sample_period must be >= 1";
  if config.affinity_distance <= 0 then
    invalid_arg "Profiler.profile: affinity_distance must be positive";
  (* One count per full-instrumentation run: the plan cache's "a warmed
     cache re-profiles nothing" guarantee is asserted against it. *)
  Obs.count obs "profile.runs" 1;
  let vmem = Vmem.create () in
  let alloc = Jemalloc_sim.create vmem in
  let contexts = Context.create () in
  let heap = Heap_model.create () in
  let graph = Affinity_graph.create () in
  let queue =
    Affinity_queue.create ~affinity_distance:config.affinity_distance ~heap
      ~on_affinity:(fun x y -> Affinity_graph.add_affinity graph x y)
      ()
  in
  let tracked_allocs = ref 0 in
  let tick = ref 0 in
  (* The interpreter serves context arrays from a per-stack-node cache,
     so the common case — an allocation site looping at a fixed stack —
     hands us the same physically-equal array every iteration; memoise
     the interning on that identity and skip hashing the array. *)
  let last_sites = ref [||] in
  let last_cid = ref (-1) in
  let track addr size ctx_sites =
    if size <= config.max_tracked_size then begin
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
      incr tracked_allocs
    end
  in
  let record_sample addr size =
    match Heap_model.find heap addr with
    | None -> ()
    | Some o ->
        if Affinity_queue.add queue o ~bytes:size then
          Affinity_graph.add_access graph o.Heap_model.ctx
  in
  (* The paper's configuration samples nothing (period 1): specialise
     away the tick bookkeeping on that path. Telemetry keeps its own
     access counter below. *)
  let record_access =
    if config.sample_period = 1 then record_sample
    else fun addr size ->
      incr tick;
      if !tick mod config.sample_period = 0 then record_sample addr size
  in
  let on_access =
    (* Specialised at construction: with [obs = None] the hook is exactly
       the seed profiling hook. *)
    match obs with
    | None -> fun addr size _write -> record_access addr size
    | Some o ->
        let h_depth =
          Metrics.histogram (Obs.metrics o) "profile.affinity_queue.depth"
        in
        (* Own access counter: [tick] is sampling bookkeeping and stays
           untouched on the period-1 fast path. *)
        let obs_tick = ref 0 in
        fun addr size _write ->
          record_access addr size;
          incr obs_tick;
          if !obs_tick land (depth_sample - 1) = 0 then begin
            let d = float_of_int (Affinity_queue.length queue) in
            Metrics.observe h_depth d;
            if !obs_tick land (series_sample - 1) = 0 then
              Obs.event obs ~name:"profile.affinity_queue.depth"
                ~attrs:[ ("tick", Json.Int !obs_tick) ]
                d
          end
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
  let interp = Interp.create ~seed:config.seed ~hooks ?obs ~program ~alloc () in
  Obs.span obs "profile"
    ~attrs:[ ("stage", Json.String "profile") ]
    ~instructions:(fun () -> Interp.instructions interp)
    (fun () ->
      ignore (Interp.run interp : int);
      Obs.add_attrs obs
        [
          ("tracked_allocs", Json.Int !tracked_allocs);
          ("contexts", Json.Int (Context.count contexts));
          ("macro_accesses", Json.Int (Affinity_queue.accesses queue));
        ]);
  let filtered =
    Obs.span obs "affinity-graph"
      ~attrs:[ ("stage", Json.String "affinity-graph") ]
      (fun () ->
        let filtered =
          Affinity_graph.filter_top graph ~coverage:config.node_coverage
        in
        Obs.add_attrs obs
          [
            ("raw_nodes", Json.Int (List.length (Affinity_graph.nodes graph)));
            ("nodes", Json.Int (List.length (Affinity_graph.nodes filtered)));
            ("edges", Json.Int (List.length (Affinity_graph.edges filtered)));
          ];
        filtered)
  in
  {
    graph = filtered;
    raw_graph = graph;
    contexts;
    total_accesses = Affinity_queue.accesses queue;
    tracked_allocs = !tracked_allocs;
    instructions = Interp.instructions interp;
  }
