(* tenant-mix: Traffic_mix.run over Schedule.drifting (8 phases x 2
   ticks, rate 6, drift 0.5) with plan_budget 3 and reprofile_every 2:
   eleven tenants share one Vmem and one Hierarchy, group chunks
   interleave, and plans are swapped every 2 ticks. *)

let phases = 8
let ticks_per_phase = 2
let rate = 6.0
let drift = 0.5
let schedule () = Schedule.drifting ~phases ~ticks_per_phase ~rate ~drift ()

let config = { Traffic_mix.default_config with Traffic_mix.plan_budget = 3; reprofile_every = 2 }

(* The schedule, validated, and the Test programs its tenants run. *)
let setup () =
  let sched = schedule () in
  (match Schedule.validate sched with Ok () -> () | Error e -> failwith ("tenant-mix: " ^ e));
  let names =
    List.sort_uniq compare
      (List.concat_map (fun p -> List.map (fun t -> t.Schedule.t_workload) p.Schedule.p_tenants) sched)
  in
  let programs =
    List.map
      (fun n ->
        let w = Option.get (Workloads.find n) in
        (w, w.Workload.make config.Traffic_mix.scale))
      names
  in
  (sched, programs)

type pass = { events : int; report : Traffic_mix.report; schedule_ok : bool }

let check_pass p =
  if p.schedule_ok then []
  else [ "Traffic_mix.run's schedule digest or job count disagrees with Schedule.events" ]

let run_pass ?obs ~seed sched =
  let events = Obs.span obs "Schedule.events" (fun () -> Schedule.events ~seed sched) in
  let report = Obs.span obs "Traffic_mix.run" (fun () -> Traffic_mix.run ~config ~seed sched) in
  {
    events = List.length events;
    report;
    schedule_ok =
      Schedule.digest events = report.Traffic_mix.schedule_digest
      && report.Traffic_mix.jobs = List.length events;
  }

(* Schedule lowering throughput: events per second over [reps] lowerings. *)
let schedule_events_per_s ~seed ~reps sched =
  let n = List.length (Schedule.events ~seed sched) in
  let (), s =
    Hb_common.timed (fun () ->
        for _ = 1 to reps do
          ignore (Schedule.events ~seed sched : Schedule.event list)
        done)
  in
  float_of_int (n * reps) /. s

let config_record =
  [
    ( "config",
      Json.Obj
        [
          ("phases", Json.Int phases);
          ("ticks_per_phase", Json.Int ticks_per_phase);
          ("rate", Json.Float rate);
          ("drift", Json.Float drift);
          ("plan_budget", Json.Int config.Traffic_mix.plan_budget);
          ("reprofile_every", Json.Int config.Traffic_mix.reprofile_every);
          ("window", Json.Int config.Traffic_mix.window);
        ] );
  ]
