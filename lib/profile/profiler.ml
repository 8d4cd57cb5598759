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

(* The macro-access step, on whichever domain runs the queue. *)
let[@inline] macro queue graph o size =
  if Affinity_queue.add queue o ~bytes:size then
    Affinity_graph.add_access graph o.Heap_model.ctx

(* Samples the queue's depth at access [tick] into [obs], the context of
   the domain running the queue. *)
let depth_sampler obs queue =
  match obs with
  | None -> fun _ -> ()
  | Some o ->
      let h_depth =
        Metrics.histogram (Obs.metrics o) "profile.affinity_queue.depth"
      in
      fun tick ->
        let d = float_of_int (Affinity_queue.length queue) in
        Metrics.observe h_depth d;
        if tick land (series_sample - 1) = 0 then
          Obs.event obs ~name:"profile.affinity_queue.depth"
            ~attrs:[ ("tick", Json.Int tick) ]
            d

(* Tracked objects by oid, for the helper. Oids are dense and never
   reused, so the calling domain appends each object as the heap model
   makes it, before any record names it. A grown table is published
   through the atomic, so the helper, which reads it once per chunk,
   sees every object a chunk names. *)
let share table (o : Heap_model.obj) =
  let objs = Atomic.get table in
  let oid = o.Heap_model.oid in
  if oid < Array.length objs then objs.(oid) <- o
  else begin
    (* [oid] is the table's length: the grown table's fill is [o]. *)
    let grown = Array.make (max 1024 (2 * oid)) o in
    Array.blit objs 0 grown 0 oid;
    Atomic.set table grown
  end

(* Records on a helper stream are two words: an object's oid and the
   access size, for an access the queue must see, or [tag_sample] and
   the access count at which to sample the queue's depth. *)
let tag_sample = -1
let chunk_words = Helper_stream.chunk_words

let consume queue graph table sample (buf : int array) off len =
  let objs = Atomic.get table in
  let stop = off + len in
  let i = ref off in
  while !i < stop do
    let a = Array.unsafe_get buf !i and b = Array.unsafe_get buf (!i + 1) in
    if a >= 0 then macro queue graph (Array.unsafe_get objs a) b else sample b;
    i := !i + 2
  done

let[@inline] push (s : Helper_stream.t) a b =
  let prod = s.prod and buf = s.buf in
  let i = Array.unsafe_get prod Helper_stream.pos in
  Array.unsafe_set buf i a;
  Array.unsafe_set buf (i + 1) b;
  let i = i + 2 in
  Array.unsafe_set prod Helper_stream.pos i;
  if i land (chunk_words - 1) = 0 then Helper_stream.publish s i

(* The front end: what a planner observes of a run. *)
type front_end = {
  max_tracked_size : int;
  contexts : Context.table;
  heap : Heap_model.t;
  mutable tracked_allocs : int;
}

let front_end ~max_tracked_size () =
  {
    max_tracked_size;
    contexts = Context.create ();
    heap = Heap_model.create ();
    tracked_allocs = 0;
  }

let hooks fe ~on_track ~on_macro =
  (* The interpreter serves context arrays from a per-stack-node cache,
     so the common case — an allocation site looping at a fixed stack —
     hands us the same physically-equal array every iteration; memoise
     the interning on that identity and skip hashing the array. *)
  let last_sites = ref [||] in
  let last_cid = ref (-1) in
  let intern ctx_sites =
    if ctx_sites == !last_sites then !last_cid
    else begin
      let cid = Context.intern fe.contexts ctx_sites in
      last_sites := ctx_sites;
      last_cid := cid;
      cid
    end
  in
  (* The last object found covers [base, base + extent). An access
     inside it repeats that object, which is always the newest macro
     access, so it skips the lookup (a non-positive size still goes on,
     for the affinity queue to reject). Freeing the object empties the
     bounds. *)
  let base = ref 0 and extent = ref 0 and last = ref None in
  let on_access addr size _write =
    if addr - !base >= 0 && addr - !base < !extent then (
      match !last with Some o when size <= 0 -> on_macro o size | _ -> ())
    else
      match Heap_model.find fe.heap addr with
      | None -> ()
      | Some o as cell ->
          base := o.Heap_model.addr;
          extent := Int.max o.Heap_model.size 1;
          last := cell;
          on_macro o size
  in
  let track addr size site ctx_sites =
    if size <= fe.max_tracked_size then begin
      on_track
        (Heap_model.on_alloc fe.heap ~addr ~size ~ctx:(intern ctx_sites))
        site;
      fe.tracked_allocs <- fe.tracked_allocs + 1
    end
  in
  let free addr =
    if addr = !base then extent := 0;
    ignore (Heap_model.on_free fe.heap ~addr : Heap_model.obj option)
  in
  {
    Interp.on_access;
    on_alloc = track;
    on_realloc =
      (fun old_addr addr size site ctx ->
        free old_addr;
        track addr size site ctx);
    on_free = free;
  }

let profile ?obs ?helper ?(config = default_config) program =
  if config.sample_period < 1 then
    invalid_arg "Profiler.profile: sample_period must be >= 1";
  if config.affinity_distance <= 0 then
    invalid_arg "Profiler.profile: affinity_distance must be positive";
  (* One count per full-instrumentation run: the plan cache's "a warmed
     cache re-profiles nothing" guarantee is asserted against it. *)
  Obs.count obs "profile.runs" 1;
  let vmem = Vmem.create () in
  let alloc = Jemalloc_sim.create vmem in
  let fe = front_end ~max_tracked_size:config.max_tracked_size () in
  let graph = Affinity_graph.create () in
  let queue =
    Affinity_queue.create ~affinity_distance:config.affinity_distance
      ~heap:fe.heap
      ~on_affinity:(fun x y -> Affinity_graph.add_affinity graph x y)
      ()
  in
  (* The interpreter and the front end run on the calling domain:
     [record] takes each macro access that survives sampling, and
     [sample] each access count at which to sample the queue's depth;
     [on_track] sees each tracked object. *)
  let sampled_hooks ~record ~sample ~on_track =
    let h = hooks fe ~on_track ~on_macro:record in
    (* The front end's access hook has the interpreter's shape, so the
       paper's configuration (period 1, nothing sampled) untraced hands
       it to the interpreter as is: one closure call per access.
       Telemetry keeps its own access counter below. *)
    let record_access =
      if config.sample_period = 1 then h.Interp.on_access
      else
        let tick = ref 0 in
        fun addr size write ->
          incr tick;
          if !tick mod config.sample_period = 0 then
            h.Interp.on_access addr size write
    in
    let on_access =
      match obs with
      | None -> record_access
      | Some _ ->
          (* Own access counter: [tick] is sampling bookkeeping and stays
             untouched on the period-1 fast path. *)
          let obs_tick = ref 0 in
          fun addr size write ->
            record_access addr size write;
            incr obs_tick;
            if !obs_tick land (depth_sample - 1) = 0 then sample !obs_tick
    in
    { h with Interp.on_access }
  in
  let run_profile hooks ~drain =
    let interp = Interp.create ~seed:config.seed ~hooks ?obs ~program ~alloc () in
    Obs.span obs "profile"
      ~attrs:[ ("stage", Json.String "profile") ]
      ~instructions:(fun () -> Interp.instructions interp)
      (fun () ->
        ignore (Interp.run interp : int);
        drain ();
        Obs.add_attrs obs
          [
            ("tracked_allocs", Json.Int fe.tracked_allocs);
            ("contexts", Json.Int (Context.count fe.contexts));
            ("macro_accesses", Json.Int (Affinity_queue.accesses queue));
          ]);
    Interp.instructions interp
  in
  (* The affinity queue and graph run on a helper domain when a core is
     spare. Only the accesses [record] takes cross the ring: one that
     finds no tracked object changes nothing, and neither does a repeat
     of the last object found. *)
  let table = Atomic.make [||] in
  let instructions =
    Helper_stream.run ?helper ?obs ~name:"profile.stream"
      (fun hobs -> consume queue graph table (depth_sampler hobs queue))
      (function
        | None ->
            run_profile ~drain:ignore
              (sampled_hooks ~on_track:(fun _ _ -> ())
                 ~sample:(depth_sampler obs queue) ~record:(macro queue graph))
        | Some s ->
            run_profile
              ~drain:(fun () -> Helper_stream.drain s)
              (sampled_hooks ~on_track:(fun o _ -> share table o)
                 ~sample:(fun tick -> push s tag_sample tick)
                 ~record:(fun o size -> push s o.Heap_model.oid size)))
  in
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
    contexts = fe.contexts;
    total_accesses = Affinity_queue.accesses queue;
    tracked_allocs = fe.tracked_allocs;
    instructions;
  }
