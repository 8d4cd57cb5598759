type config = {
  plan_budget : int;
  reprofile_every : int;
  window : int;
  scale : Workload.scale;
  pipeline : Pipeline.config;
}

let default_config =
  {
    plan_budget = 3;
    reprofile_every = 0;
    window = 4;
    scale = Workload.Test;
    pipeline = Pipeline.default_config;
  }

type tenant_stats = {
  ts_tenant : string;
  ts_workload : string;
  ts_jobs : int;
  ts_covered_jobs : int;
  ts_instructions : int;
  ts_accesses : int;
  ts_l1_misses : int;
}

type phase_stats = {
  ph_phase : int;
  ph_label : string;
  ph_jobs : int;
  ph_covered_jobs : int;
  ph_accesses : int;
  ph_l1_misses : int;
  ph_mean_plan_age : float;
}

type report = {
  schedule_digest : string;
  exec_digest : string;
  jobs : int;
  instructions : int;
  counters : Hierarchy.counters;
  cycles : float;
  sim_seconds : float;
  miss_rate : float;
  covered_jobs : int;
  coverage : float;
  replans : int;
  profile_runs : int;
  profile_accesses : int;
  net_cycles : float;
  tenants : tenant_stats list;
  phases : phase_stats list;
}

(* Mutable per-tenant accumulator. *)
type tacc = {
  ta_workload : string;
  mutable ta_jobs : int;
  mutable ta_covered : int;
  mutable ta_instr : int;
  mutable ta_acc : int;
  mutable ta_l1 : int;
}

type pacc = {
  mutable pa_jobs : int;
  mutable pa_covered : int;
  mutable pa_acc : int;
  mutable pa_l1 : int;
  mutable pa_age_sum : int;
}

(* Each workload's plan under [config.pipeline], made once per run: a
   workload dropped from the hot set and adopted again reuses it. *)
let memo_plans ?obs config =
  let memo = Hashtbl.create 16 in
  fun w ->
    match Hashtbl.find_opt memo w.Workload.name with
    | Some p -> p
    | None ->
        let config = Workload.pipeline_config w config.pipeline in
        let p = Pipeline.plan ?obs ~config (w.Workload.make Workload.Test) in
        Hashtbl.add memo w.Workload.name p;
        p

(* Each tick's events, in stream order. *)
let by_tick events total_ticks =
  let by_tick = Array.make (max 1 total_ticks) [] in
  List.iter
    (fun e -> by_tick.(e.Schedule.ev_tick) <- e :: by_tick.(e.Schedule.ev_tick))
    events;
  Array.map List.rev by_tick

let replans_at config tick =
  tick = 0 || (config.reprofile_every > 0 && tick mod config.reprofile_every = 0)

(* The hot set at [tick]: the [plan_budget] workloads with the most jobs
   in the [window] ticks ending at [tick], ties broken by name. *)
let hot_set config by_tick tick =
  let counts = Hashtbl.create 16 in
  for t = max 0 (tick - (config.window - 1)) to tick do
    List.iter
      (fun e ->
        let k = e.Schedule.ev_workload in
        Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
      by_tick.(t)
  done;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (na, ca) (nb, cb) -> match compare cb ca with 0 -> compare na nb | c -> c)
  |> List.filteri (fun i _ -> i < config.plan_budget)
  |> List.map fst

let hot_sets ?(config = default_config) ~seed sched =
  let total_ticks = Schedule.total_ticks sched in
  let by_tick = by_tick (Schedule.events ~seed sched) total_ticks in
  List.filter_map
    (fun tick -> if replans_at config tick then Some (tick, hot_set config by_tick tick) else None)
    (List.init total_ticks Fun.id)

let run ?obs ?(config = default_config) ?plan_for ~seed sched =
  let plan_for =
    match plan_for with Some f -> f | None -> memo_plans ?obs config
  in
  let events = Schedule.events ~seed sched in
  let schedule_digest = Schedule.digest events in
  let total_ticks = Schedule.total_ticks sched in
  let by_tick = by_tick events total_ticks in
  let phase_labels =
    Array.of_list (List.map (fun p -> p.Schedule.p_label) sched)
  in
  (* First global tick of each phase, for boundary telemetry. *)
  let phase_start = Array.make (Array.length phase_labels) 0 in
  ignore
    (List.fold_left
       (fun (i, tick) p ->
         if i < Array.length phase_start then phase_start.(i) <- tick;
         (i + 1, tick + p.Schedule.p_ticks))
       (0, 0) sched);
  let vmem = Vmem.create () in
  let fallback = Jemalloc_sim.create vmem in
  let hier = Hierarchy.create ?obs () in
  let programs : (string, Workload.t * Ir.program) Hashtbl.t =
    Hashtbl.create 16
  in
  let program_for name =
    match Hashtbl.find_opt programs name with
    | Some p -> p
    | None ->
        let w =
          match Workloads.lookup name with
          | Ok w -> w
          | Error e -> invalid_arg (Workloads.lookup_error_to_string e)
        in
        let p = (w, w.Workload.make config.scale) in
        Hashtbl.add programs name p;
        p
  in
  (* Live plans: workload name -> (runtime, tick planned at). *)
  let plans : (string, Pipeline.runtime * int) Hashtbl.t = Hashtbl.create 8 in
  let replans = ref 0 in
  let profile_runs = ref 0 in
  let profile_accesses = ref 0 in
  let replan tick =
    incr replans;
    Obs.count obs "traffic.replans" 1;
    let hot = hot_set config by_tick tick in
    Hashtbl.iter
      (fun name _ -> if not (List.mem name hot) then Hashtbl.remove plans name)
      (Hashtbl.copy plans);
    List.iter
      (fun name ->
        if not (Hashtbl.mem plans name) then begin
          let plan = plan_for (fst (program_for name)) in
          (* The model charges a profile at every adoption. *)
          incr profile_runs;
          profile_accesses :=
            !profile_accesses + plan.Pipeline.profile.Profiler.total_accesses;
          Obs.count obs "traffic.profile.runs" 1;
          let rt = Pipeline.instantiate ?obs plan ~fallback vmem in
          Hashtbl.replace plans name (rt, tick)
        end)
      hot
  in
  let tenants : (string, tacc) Hashtbl.t = Hashtbl.create 16 in
  let phases =
    Array.init (Array.length phase_labels) (fun _ ->
        { pa_jobs = 0; pa_covered = 0; pa_acc = 0; pa_l1 = 0; pa_age_sum = 0 })
  in
  let jobs = ref 0 in
  let covered_jobs = ref 0 in
  let instructions = ref 0 in
  let digest = ref Fnv.offset in
  (* The hierarchy runs on a helper domain when a core is spare; each job
     drains it before reading the counters. *)
  let run_all stream =
    let hooks =
      { Interp.no_hooks with Interp.on_access = Hierarchy.Stream.hook stream }
    in
    for tick = 0 to total_ticks - 1 do
      Array.iteri
        (fun pi start ->
          if start = tick then
            Obs.event obs ~name:"traffic.phase"
              ~attrs:
                [
                  ("label", Json.String phase_labels.(pi));
                  ("phase", Json.Int pi);
                ]
              (float_of_int tick))
        phase_start;
      if replans_at config tick then replan tick;
      List.iter
        (fun e ->
          let _, program = program_for e.Schedule.ev_workload in
          let plan = Hashtbl.find_opt plans e.Schedule.ev_workload in
          let before = Hierarchy.counters hier in
          let interp =
            match plan with
            | Some (rt, _) ->
                Interp.create ~seed:e.Schedule.ev_seed ~hooks
                  ~patches:rt.Pipeline.patches ~env:rt.Pipeline.env ?obs
                  ~program
                  ~alloc:(Group_alloc.iface rt.Pipeline.galloc)
                  ()
            | None ->
                Interp.create ~seed:e.Schedule.ev_seed ~hooks ~patches:[] ?obs
                  ~program ~alloc:fallback ()
          in
          ignore (Interp.run interp : int);
          Hierarchy.Stream.drain stream;
          let after = Hierarchy.counters hier in
          let d_instr = Interp.instructions interp in
          let d_acc = after.Hierarchy.accesses - before.Hierarchy.accesses in
          let d_l1 = after.Hierarchy.l1_misses - before.Hierarchy.l1_misses in
          incr jobs;
          instructions := !instructions + d_instr;
          let covered = plan <> None in
          if covered then incr covered_jobs;
          Obs.count obs "traffic.jobs" 1;
          if covered then Obs.count obs "traffic.jobs.covered" 1;
          let age =
            match plan with Some (_, at) -> tick - at | None -> 0
          in
          if covered then Obs.observe obs "traffic.plan.age" (float_of_int age);
          let ta =
            match Hashtbl.find_opt tenants e.Schedule.ev_tenant with
            | Some ta -> ta
            | None ->
                let ta =
                  {
                    ta_workload = e.Schedule.ev_workload;
                    ta_jobs = 0;
                    ta_covered = 0;
                    ta_instr = 0;
                    ta_acc = 0;
                    ta_l1 = 0;
                  }
                in
                Hashtbl.add tenants e.Schedule.ev_tenant ta;
                ta
          in
          ta.ta_jobs <- ta.ta_jobs + 1;
          if covered then ta.ta_covered <- ta.ta_covered + 1;
          ta.ta_instr <- ta.ta_instr + d_instr;
          ta.ta_acc <- ta.ta_acc + d_acc;
          ta.ta_l1 <- ta.ta_l1 + d_l1;
          let pa = phases.(e.Schedule.ev_phase) in
          pa.pa_jobs <- pa.pa_jobs + 1;
          if covered then begin
            pa.pa_covered <- pa.pa_covered + 1;
            pa.pa_age_sum <- pa.pa_age_sum + age
          end;
          pa.pa_acc <- pa.pa_acc + d_acc;
          pa.pa_l1 <- pa.pa_l1 + d_l1;
          let line =
            Printf.sprintf "%d|%s|%s|%b|%d|%d|%d\n" tick e.Schedule.ev_tenant
              e.Schedule.ev_workload covered d_instr d_acc d_l1
          in
          digest := Fnv.feed !digest line 0 (String.length line))
        by_tick.(tick)
    done
  in
  Obs.span obs "traffic.run"
    ~attrs:
      [
        ("phases", Json.Int (List.length sched));
        ("ticks", Json.Int total_ticks);
        ("events", Json.Int (List.length events));
        ("seed", Json.Int seed);
        ("plan_budget", Json.Int config.plan_budget);
        ("reprofile_every", Json.Int config.reprofile_every);
      ]
    (fun () -> Hierarchy.Stream.run hier run_all);
  (* Only the jobs touch the hierarchy, so its counters are their totals. *)
  let counters = Hierarchy.counters hier in
  let model = Timing.skylake_sp in
  let cycles = Timing.cycles model ~instructions:!instructions counters in
  let coverage =
    if !jobs > 0 then float_of_int !covered_jobs /. float_of_int !jobs else 0.0
  in
  Obs.set_gauge obs "traffic.coverage" coverage;
  {
    schedule_digest;
    exec_digest = Printf.sprintf "%016Lx" !digest;
    jobs = !jobs;
    instructions = !instructions;
    counters;
    cycles;
    sim_seconds = Timing.seconds model ~instructions:!instructions counters;
    miss_rate =
      (if counters.Hierarchy.accesses > 0 then
         float_of_int counters.Hierarchy.l1_misses
         /. float_of_int counters.Hierarchy.accesses
       else 0.0);
    covered_jobs = !covered_jobs;
    coverage;
    replans = !replans;
    profile_runs = !profile_runs;
    profile_accesses = !profile_accesses;
    net_cycles = cycles +. float_of_int !profile_accesses;
    tenants =
      Hashtbl.fold
        (fun name ta acc ->
          {
            ts_tenant = name;
            ts_workload = ta.ta_workload;
            ts_jobs = ta.ta_jobs;
            ts_covered_jobs = ta.ta_covered;
            ts_instructions = ta.ta_instr;
            ts_accesses = ta.ta_acc;
            ts_l1_misses = ta.ta_l1;
          }
          :: acc)
        tenants []
      |> List.sort (fun a b -> compare a.ts_tenant b.ts_tenant);
    phases =
      Array.to_list
        (Array.mapi
           (fun i pa ->
             {
               ph_phase = i;
               ph_label = phase_labels.(i);
               ph_jobs = pa.pa_jobs;
               ph_covered_jobs = pa.pa_covered;
               ph_accesses = pa.pa_acc;
               ph_l1_misses = pa.pa_l1;
               ph_mean_plan_age =
                 (if pa.pa_covered > 0 then
                    float_of_int pa.pa_age_sum /. float_of_int pa.pa_covered
                  else 0.0);
             })
           phases);
  }

let pct x = Table.fmt_pct x

let report_table r =
  let t =
    Table.create ~title:"Traffic mix"
      ~headers:
        [ "phase"; "jobs"; "covered"; "miss rate"; "mean plan age" ]
      ()
  in
  Table.set_aligns t
    [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ];
  List.iter
    (fun p ->
      Table.add_row t
        [
          p.ph_label;
          string_of_int p.ph_jobs;
          (if p.ph_jobs > 0 then
             pct (float_of_int p.ph_covered_jobs /. float_of_int p.ph_jobs)
           else "-");
          (if p.ph_accesses > 0 then
             pct (float_of_int p.ph_l1_misses /. float_of_int p.ph_accesses)
           else "-");
          Table.fmt_float ~decimals:1 p.ph_mean_plan_age;
        ])
    r.phases;
  Table.add_rule t;
  Table.add_row t
    [
      "total";
      string_of_int r.jobs;
      pct r.coverage;
      pct r.miss_rate;
      Printf.sprintf "%d replans / %d profiles" r.replans r.profile_runs;
    ];
  t

let tenant_table r =
  let t =
    Table.create ~title:"Tenants"
      ~headers:[ "tenant"; "workload"; "jobs"; "covered"; "miss rate" ]
      ()
  in
  Table.set_aligns t
    [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right ];
  List.iter
    (fun ts ->
      Table.add_row t
        [
          ts.ts_tenant;
          ts.ts_workload;
          string_of_int ts.ts_jobs;
          (if ts.ts_jobs > 0 then
             pct (float_of_int ts.ts_covered_jobs /. float_of_int ts.ts_jobs)
           else "-");
          (if ts.ts_accesses > 0 then
             pct (float_of_int ts.ts_l1_misses /. float_of_int ts.ts_accesses)
           else "-");
        ])
    r.tenants;
  t

let report_to_json r =
  Json.Obj
    [
      ("schedule_digest", Json.String r.schedule_digest);
      ("exec_digest", Json.String r.exec_digest);
      ("jobs", Json.Int r.jobs);
      ("instructions", Json.Int r.instructions);
      ("counters", Hierarchy.counters_to_json r.counters);
      ("cycles", Json.Float r.cycles);
      ("sim_seconds", Json.Float r.sim_seconds);
      ("miss_rate", Json.Float r.miss_rate);
      ("covered_jobs", Json.Int r.covered_jobs);
      ("coverage", Json.Float r.coverage);
      ("replans", Json.Int r.replans);
      ("profile_runs", Json.Int r.profile_runs);
      ("profile_accesses", Json.Int r.profile_accesses);
      ("net_cycles", Json.Float r.net_cycles);
      ( "tenants",
        Json.List
          (List.map
             (fun ts ->
               Json.Obj
                 [
                   ("tenant", Json.String ts.ts_tenant);
                   ("workload", Json.String ts.ts_workload);
                   ("jobs", Json.Int ts.ts_jobs);
                   ("covered_jobs", Json.Int ts.ts_covered_jobs);
                   ("instructions", Json.Int ts.ts_instructions);
                   ("accesses", Json.Int ts.ts_accesses);
                   ("l1_misses", Json.Int ts.ts_l1_misses);
                 ])
             r.tenants) );
      ( "phases",
        Json.List
          (List.map
             (fun p ->
               Json.Obj
                 [
                   ("phase", Json.Int p.ph_phase);
                   ("label", Json.String p.ph_label);
                   ("jobs", Json.Int p.ph_jobs);
                   ("covered_jobs", Json.Int p.ph_covered_jobs);
                   ("accesses", Json.Int p.ph_accesses);
                   ("l1_misses", Json.Int p.ph_l1_misses);
                   ("mean_plan_age", Json.Float p.ph_mean_plan_age);
                 ])
             r.phases) );
    ]
