type config = { streams : Hot_streams.config }

let default_config = { streams = Hot_streams.default_config }
let max_trace = 1_000_000

type plan = {
  groups : int list array;
  stream_count : int;
  selected_streams : int;
  trace_length : int;
  grammar_rules : int;
  coverage : float;
  candidates : Set_packing.candidate list;
}

let pack ~merge_identical candidates =
  Array.of_list (Set_packing.pack ~merge_identical candidates)

let plan ?(config = default_config) ?(merge_identical = false) program =
  Hot_streams.check_config config.streams;
  let grammar = Sequitur.create () in
  let site_of_oid = Hashtbl.create 4096 in
  (* The profiler's front end, at its seed and tracking bound: the two
     techniques see the same macro-access trace. *)
  let profiler = Profiler.default_config in
  let fe =
    Profiler.front_end ~max_tracked_size:profiler.Profiler.max_tracked_size ()
  in
  let hooks =
    Profiler.hooks fe
      ~on_track:(fun o site -> Hashtbl.replace site_of_oid o.Heap_model.oid site)
      ~on_macro:(fun o _size ->
        if Sequitur.input_length grammar < max_trace then
          Sequitur.push grammar o.Heap_model.oid)
  in
  let alloc = Jemalloc_sim.create (Vmem.create ()) in
  let interp =
    Interp.create ~seed:profiler.Profiler.seed ~hooks ~program ~alloc ()
  in
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
  {
    groups = pack ~merge_identical candidates;
    stream_count = hot.Hot_streams.candidate_count;
    selected_streams = List.length hot.Hot_streams.streams;
    trace_length = hot.Hot_streams.trace_length;
    grammar_rules = Sequitur.rule_count grammar;
    coverage =
      (if hot.Hot_streams.trace_length = 0 then 0.0
       else
         float_of_int hot.Hot_streams.covered
         /. float_of_int hot.Hot_streams.trace_length);
    candidates;
  }

let repack ~merge_identical plan =
  { plan with groups = pack ~merge_identical plan.candidates }

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
