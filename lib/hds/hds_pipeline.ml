type config = {
  streams : Hot_streams.config;
  max_trace : int;
  max_tracked_size : int;
  max_sets : int option;
  seed : int;
}

let default_config =
  {
    streams = Hot_streams.default_config;
    max_trace = 1_000_000;
    max_tracked_size = 4096;
    max_sets = None;
    seed = 1;
  }

type plan = {
  groups : int list array;
  stream_count : int;
  selected_streams : int;
  trace_length : int;
  grammar_rules : int;
  coverage : float;
}

let check_config config =
  Hot_streams.check_config config.streams;
  if config.max_trace < 0 then invalid_arg "Hds_pipeline: max_trace < 0";
  if config.max_tracked_size < 0 then
    invalid_arg "Hds_pipeline: max_tracked_size < 0";
  match config.max_sets with
  | Some n when n < 0 -> invalid_arg "Hds_pipeline: max_sets < 0"
  | _ -> ()

let plan ?(config = default_config) ?(merge_identical = false) program =
  check_config config;
  let vmem = Vmem.create () in
  let alloc = Jemalloc_sim.create vmem in
  let contexts = Context.create () in
  let heap = Heap_model.create () in
  let grammar = Sequitur.create () in
  let site_of_oid = Hashtbl.create 4096 in
  let last_oid = ref (-1) in
  (* Context arrays arrive physically stable per (stack, site) from the
     interpreter's cache — memoise interning on identity (see
     Profiler.track). *)
  let last_sites = ref [||] in
  let last_cid = ref (-1) in
  let track addr size site ctx_sites =
    if size <= config.max_tracked_size then begin
      (* The context table is only used for oid bookkeeping here; HDS
         identification sees just the immediate site. *)
      let cid =
        if ctx_sites == !last_sites then !last_cid
        else begin
          let cid = Context.intern contexts ctx_sites in
          last_sites := ctx_sites;
          last_cid := cid;
          cid
        end
      in
      let o = Heap_model.on_alloc heap ~addr ~size ~ctx:cid in
      Hashtbl.replace site_of_oid o.Heap_model.oid site
    end
  in
  let hooks =
    {
      Interp.on_access =
        (fun addr _size _write ->
          if Sequitur.input_length grammar < config.max_trace then
            match Heap_model.find heap addr with
            | None -> ()
            | Some o ->
                (* Same macro-access deduplication as HALO's profiler, so
                   the two techniques see the same abstract trace. *)
                if o.Heap_model.oid <> !last_oid then begin
                  last_oid := o.Heap_model.oid;
                  Sequitur.push grammar o.Heap_model.oid
                end);
      on_alloc = (fun addr size site ctx -> track addr size site ctx);
      on_realloc =
        (fun old_addr addr size site ctx ->
          ignore (Heap_model.on_free heap ~addr:old_addr : Heap_model.obj option);
          track addr size site ctx);
      on_free =
        (fun addr -> ignore (Heap_model.on_free heap ~addr : Heap_model.obj option));
    }
  in
  let interp = Interp.create ~seed:config.seed ~hooks ~program ~alloc () in
  ignore (Interp.run interp : int);
  let hot = Hot_streams.extract ~config:config.streams grammar in
  let candidates =
    List.map
      (fun (s : Hot_streams.stream) ->
        let sites =
          Array.to_list s.objects
          |> List.filter_map (fun oid -> Hashtbl.find_opt site_of_oid oid)
        in
        (* The projected benefit of enacting a stream's co-allocation set
           is proportional to the trace positions it accounts for. *)
        { Set_packing.sites; weight = s.heat })
      hot.Hot_streams.streams
  in
  let groups =
    Array.of_list
      (Set_packing.pack ~merge_identical ?max_sets:config.max_sets candidates)
  in
  {
    groups;
    stream_count = hot.Hot_streams.candidate_count;
    selected_streams = List.length hot.Hot_streams.streams;
    trace_length = hot.Hot_streams.trace_length;
    grammar_rules = Sequitur.rule_count grammar;
    coverage =
      (if hot.Hot_streams.trace_length = 0 then 0.0
       else
         float_of_int hot.Hot_streams.covered
         /. float_of_int hot.Hot_streams.trace_length);
  }

let classifier plan =
  let group_of_site = Hashtbl.create 64 in
  Array.iteri
    (fun gi sites ->
      List.iter
        (fun s ->
          if not (Hashtbl.mem group_of_site s) then Hashtbl.replace group_of_site s gi)
        sites)
    plan.groups;
  fun ~env ~size:_ -> Hashtbl.find_opt group_of_site env.Exec_env.cur_alloc_site
