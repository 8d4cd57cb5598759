(* The repository benchmark: HALO's pipeline end to end and layer by
   layer. Run it through run.py, which builds this executable first:

     python3 halobench/run.py --workload paper-suite --seed 2 --seconds 32 --trace 0

   Workloads (see Hb_suite, Hb_fleet, Hb_mix):
     paper-suite  11 registry workloads x {jemalloc, halo, hds, random-4}
     fleet-serve  Serve_sim's job stream through Serve.handle_line
     tenant-mix   Traffic_mix.run over a drifting multi-tenant schedule

   --trace 0 runs timed passes with tracing off, each in a fresh worker
   process, until --seconds is spent, and reports the end-to-end metrics.
   Each worker times the reference kernel (Hb_common) a few times, a
   pass worker right before and after its pass. Every end-to-end time
   is reported at the reference speed, raw time x reference_ms / the
   mean of its own worker's kernel samples, so that a shared host's
   drift in speed does not read as a change in the program. The raw
   times ride in the run record.
   --trace 1 runs one untraced and one traced pass in process (spans
   around the library's public calls, exported as a Chrome trace under
   .halobench/out/), then the layer ladder (Hb_ladder), and reports the
   per-layer metrics. trace.overhead_s is the traced pass's span count
   times the measured cost of one span (Hb_common.span_cost_s); the two
   passes' wall times ride along in the run record only.

   stdout carries two lines: a run record (machine fingerprint, run
   config, sample counts, output digest, failed checks), then the result
   object {correct, attempted, failed, metrics}. Everything else goes to
   stderr. *)

open Hb_common

(* End-to-end metrics, reported on every workload. The three
   HALO-vs-jemalloc ratios belong to paper-suite and the plan/mix figures
   to fleet-serve and tenant-mix; a workload that does not exercise one
   reports 1.0, its neutral value, and the stderr table marks it n/a. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("peak_heap_mb", "MiB");
    ("success_rate", "fraction");
    ("job_latency_p50_ms", "ms");
    ("job_latency_p99_ms", "ms");
    ("halo_speedup_geomean", "ratio");
    ("halo_l1d_miss_ratio", "ratio");
    ("hds_speedup_geomean", "ratio");
    ("plan_hit_rate", "fraction");
    ("mix_coverage", "fraction");
    ("mix_l1d_miss_rate", "fraction");
  ]

let workload_only =
  [
    ("halo_speedup_geomean", "paper-suite");
    ("halo_l1d_miss_ratio", "paper-suite");
    ("hds_speedup_geomean", "paper-suite");
    ("plan_hit_rate", "fleet-serve");
    ("mix_coverage", "tenant-mix");
    ("mix_l1d_miss_rate", "tenant-mix");
  ]

(* Per-layer metrics, from the traced run. A layer the workload does not
   exercise reads 0. *)
let per_layer =
  [
    ("vm.ns_per_event", "ns");
    ("vm.events", "count");
    ("vm.instructions", "count");
    ("alloc.jemalloc.ns_per_op", "ns");
    ("alloc.ops", "count");
    ("core.group_alloc.ns_per_op", "ns");
    ("core.group_alloc.grouped_mallocs", "count");
    ("core.group_alloc.chunks_carved", "count");
    ("cachesim.l1.ns_per_access", "ns");
    ("cachesim.l2_l3.ns_per_access", "ns");
    ("cachesim.tlb.ns_per_access", "ns");
    ("cachesim.accesses", "count");
    ("cachesim.l1.misses", "count");
    ("cachesim.l2.misses", "count");
    ("cachesim.l3.misses", "count");
    ("cachesim.tlb.misses", "count");
    ("cachesim.l1.hit_ratio", "ratio");
    ("profile.heap_model.ns_per_event", "ns");
    ("profile.affinity_queue.ns_per_event", "ns");
    ("profile.affinity_graph.ns_per_event", "ns");
    ("profile.macro_accesses", "count");
    ("profile.contexts", "count");
    ("profile.tracked_allocs", "count");
    ("profile.dedup_ratio", "ratio");
    ("stage.profile_s", "s");
    ("stage.derive_s", "s");
    ("stage.allocator_synthesis_s", "s");
    ("stage.measurement_s", "s");
    ("stage.hds_plan_s", "s");
    ("par.idle_s", "s");
    ("core.groups", "count");
    ("core.monitored_sites", "count");
    ("hds.candidate_streams", "count");
    ("serve.proto.parse_us", "us");
    ("serve.request_latency_p50_us", "us");
    ("serve.record_latency_p50_ms", "ms");
    ("serve.plan.misses", "count");
    ("serve.plan.invalidations", "count");
    ("serve.profile_runs", "count");
    ("store.encode_mb_per_s", "MB/s");
    ("store.decode_profiles_per_s", "1/s");
    ("store.decode_plans_per_s", "1/s");
    ("store.merge_profiles_per_s", "1/s");
    ("traffic.schedule.events_per_s", "1/s");
    ("traffic.replans", "count");
    ("traffic.profile_runs", "count");
    ("trace.overhead_s", "s");
    ("trace.spans", "count");
  ]

let workloads = [ "paper-suite"; "fleet-serve"; "tenant-mix" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  fingerprint : (string * Json.t) list;  (** Passed in by run.py. *)
}

(* ------------------------------------------------------------------ *)
(* Timed passes, one per worker process                                *)
(*                                                                     *)
(* Each timed pass runs in a fresh process: on a shared machine one    *)
(* process can run several percent slower than the next for its whole  *)
(* life (where its memory landed), which more passes in one process    *)
(* cannot average out but more processes can. A worker times its own  *)
(* set-up from the moment its parent spawned it to its first timed     *)
(* operation (CLOCK_MONOTONIC is shared by both), so setup_s includes  *)
(* process start.                                                      *)
(* ------------------------------------------------------------------ *)

type pass = {
  attempted : int;
  failed : int;
  problems : string list;  (** Failed output checks. *)
  setup_s : float;  (** Spawn to first timed operation. *)
  wall_s : float;
  latencies : float list;  (** Seconds per job. *)
  values : (string * float) list;  (** Deterministic metric values. *)
  digest : string;  (** Output digest; one seed gives one digest. *)
  heap_mb : float;  (** The worker's peak major heap. *)
  reference_ms : float list;  (** Reference-kernel samples around the pass. *)
}

let floats l = Json.List (List.map (fun x -> Json.Float x) l)

let json_of_pass p =
  Json.Obj
    [
      ("attempted", Json.Int p.attempted);
      ("failed", Json.Int p.failed);
      ("problems", Json.List (List.map (fun s -> Json.String s) p.problems));
      ("setup_s", Json.Float p.setup_s);
      ("wall_s", Json.Float p.wall_s);
      ("latencies", floats p.latencies);
      ("values", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) p.values));
      ("digest", Json.String p.digest);
      ("heap_mb", Json.Float p.heap_mb);
      ("reference_ms", floats p.reference_ms);
    ]

let pass_of_json j =
  let ok = function Ok v -> v | Error e -> failwith ("worker output: " ^ e) in
  let num = function Json.Float f -> f | Json.Int i -> float_of_int i | _ -> nan in
  {
    attempted = ok (Json.get_int "attempted" j);
    failed = ok (Json.get_int "failed" j);
    problems =
      List.map (function Json.String s -> s | _ -> "?") (ok (Json.get_list "problems" j));
    setup_s = ok (Json.get_float "setup_s" j);
    wall_s = ok (Json.get_float "wall_s" j);
    latencies = List.map num (ok (Json.get_list "latencies" j));
    values = List.map (fun (k, v) -> (k, num v)) (ok (Json.get_obj "values" j));
    digest = ok (Json.get_string "digest" j);
    heap_mb = ok (Json.get_float "heap_mb" j);
    reference_ms = List.map num (ok (Json.get_list "reference_ms" j));
  }

(* Reference-kernel samples a worker takes, in the same process as its
   pass: a pass worker right before and right after its pass, so they
   bracket it; a set-up-only worker right after its set-up, which
   spreads more of them between the passes. *)
let references_per_pass = 4
let references_per_setup = 2

let reference_samples n = List.init n (fun _ -> reference_sample_ms ())

(* Set up, then (unless [setup_only]) run one untraced pass. *)
let worker_pass a ~spawned_at ~setup_only =
  let ready () = Int64.to_float (Int64.sub (now_ns ()) spawned_at) *. 1e-9 in
  let only setup_s =
    { attempted = 0; failed = 0; problems = []; setup_s; wall_s = 0.0; latencies = [];
      values = []; digest = ""; heap_mb = 0.0;
      reference_ms = reference_samples references_per_setup }
  in
  (* The peak heap is read before the samples after the pass, which
     would otherwise add the kernel's table to it. *)
  let timed_pass f =
    let before = reference_samples references_per_pass in
    let r, s = timed f in
    let heap_mb = peak_heap_mb () in
    (r, s, (heap_mb, before @ reference_samples references_per_pass))
  in
  let finish (heap_mb, refs) p = { p with heap_mb; reference_ms = refs } in
  match a.workload with
  | "paper-suite" ->
      let programs = Hb_suite.build_programs () in
      let pool = Par.create ~name:"suite" ~jobs:Hb_suite.domains () in
      let setup_s = ready () in
      if setup_only then (Par.shutdown pool; only setup_s)
      else begin
        let cells, wall_s, after =
          timed_pass (fun () -> Hb_suite.run_pass pool ~seed:a.seed ~traced:false programs)
        in
        Par.shutdown pool;
        let speedup, miss_ratio, hds = Hb_suite.quality cells in
        finish after
          {
            attempted = List.length cells;
            failed = Hb_suite.failed cells;
            problems = Hb_suite.check_pass cells;
            setup_s;
            wall_s;
            latencies = List.map (fun c -> c.Hb_suite.seconds) cells;
            values =
              [
                ("halo_speedup_geomean", speedup);
                ("halo_l1d_miss_ratio", miss_ratio);
                ("hds_speedup_geomean", hds);
              ];
            digest = Hb_suite.rows_digest cells;
            heap_mb = 0.0;
            reference_ms = [];
          }
      end
  | "fleet-serve" ->
      let jobs, d = Hb_fleet.setup ~seed:a.seed ~name:(Printf.sprintf "fleet-%d" (Unix.getpid ())) in
      let setup_s = ready () in
      if setup_only then (rm_rf d.Hb_fleet.dir; only setup_s)
      else begin
        let p, wall_s, after = timed_pass (fun () -> Hb_fleet.run_pass d jobs) in
        rm_rf d.Hb_fleet.dir;
        finish after
          {
            attempted = List.length p.Hb_fleet.latencies;
            failed = p.Hb_fleet.errors;
            problems = [];
            setup_s;
            wall_s;
            latencies = List.map snd p.Hb_fleet.latencies;
            values = [ ("plan_hit_rate", Hb_fleet.plan_hit_rate p) ];
            digest = p.Hb_fleet.digest;
            heap_mb = 0.0;
            reference_ms = [];
          }
      end
  | _ ->
      let sched, _ = Hb_mix.setup () in
      let setup_s = ready () in
      if setup_only then only setup_s
      else begin
        let r, wall_s, after = timed_pass (fun () -> Hb_mix.run_pass ~seed:a.seed sched) in
        let report = r.Hb_mix.report in
        finish after
          {
            attempted = r.Hb_mix.events;
            failed = 0;
            problems = Hb_mix.check_pass r;
            setup_s;
            wall_s;
            latencies = [ wall_s ];
            values =
              [
                ("mix_coverage", report.Traffic_mix.coverage);
                ("mix_l1d_miss_rate", report.Traffic_mix.miss_rate);
              ];
            digest = report.Traffic_mix.exec_digest;
            heap_mb = 0.0;
            reference_ms = [];
          }
      end

let spawn_worker a ~setup_only =
  let args =
    [ "worker"; "--workload"; a.workload; "--seed"; string_of_int a.seed;
      "--seconds"; "0"; "--trace"; "0"; "--spawned-at"; Int64.to_string (now_ns ()) ]
    @ if setup_only then [ "--setup-only" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> (
      match List.rev (String.split_on_char '\n' (String.trim out)) with
      | last :: _ -> (
          match Json.of_string last with
          | Ok j -> Ok (pass_of_json j)
          | Error e -> Error ("worker printed no result: " ^ e))
      | [] -> Error "worker printed nothing")
  | _ -> Error "worker died"

(* Set-up samples beyond each timed pass's own. Set-up is mostly process
   start, a few ms that one slow moment can double; setup_s is the median
   over these and the passes' own. *)
let setups_per_pass = 3

(* Spawn timed workers while another pass, as long as the last, would end
   no more than half a pass past [seconds]; at least one. After each pass
   come [setups_per_pass] set-up-only workers, so set-up samples spread
   over the whole run. Returns the passes and the set-up-only results. *)
let timed_passes a =
  let start = now_ns () in
  let rec go passes setups =
    let r, s = timed (fun () -> spawn_worker a ~setup_only:false) in
    let setups = List.init setups_per_pass (fun _ -> spawn_worker a ~setup_only:true) @ setups in
    let passes = r :: passes in
    if since_s start +. (s /. 2.0) > a.seconds then (List.rev passes, List.rev setups)
    else go passes setups
  in
  go [] []

(* Jobs one timed pass attempts: a worker that dies loses all of them. *)
let jobs_per_pass a =
  match a.workload with
  | "paper-suite" -> List.length Workloads.all * List.length Figures.suite_kinds
  | "fleet-serve" -> List.length (Hb_fleet.job_lines ~seed:a.seed)
  | _ -> List.length (Schedule.events ~seed:a.seed (Hb_mix.schedule ()))

let all_equal = function [] -> true | x :: rest -> List.for_all (( = ) x) rest

(* ------------------------------------------------------------------ *)
(* Traced runs (in process)                                            *)
(* ------------------------------------------------------------------ *)

type traced = {
  t_attempted : int;
  t_failed : int;
  t_problems : string list;
  t_values : (string * float) list;
  t_digest : string;
  t_extra : (string * Json.t) list;
}

let trace_path a =
  let dir = Filename.concat scratch_root "out" in
  mkdir_p dir;
  Filename.concat dir (Printf.sprintf "%s-seed%d.trace.json" a.workload a.seed)

(* Close a traced run: export the Chrome trace, print the self-time
   table, and return it with the span count. *)
let finish_trace a obs =
  Obs.finish obs;
  let path = trace_path a in
  Trace_event.write ~process_name:("halobench " ^ a.workload) ~path obs;
  log "wrote Chrome trace %s" path;
  let table = self_times obs in
  print_self_times (Printf.sprintf "%s: per-span self time (traced pass)" a.workload) table;
  (table, List.length (Obs.spans obs))

(* The ladder replays the Test-scale programs (the ones profiling and
   the fleet and mix jobs run), five trials per setup: a Ref-scale ladder
   takes about a minute per trial, and the small layers' deltas need the
   median of several. *)
let ladder_trials = 5

let ladder_values ~seed programs =
  let tot = Hb_ladder.create_totals () in
  List.iter
    (fun (w, p) ->
      log "ladder: %s" w.Workload.name;
      Hb_ladder.add_program tot ~trials:ladder_trials ~seed w p)
    programs;
  Hb_ladder.print tot;
  (Hb_ladder.metrics tot, List.rev tot.Hb_ladder.failures)

let cache_values (c : Hierarchy.counters) =
  let f = float_of_int in
  [
    ("cachesim.accesses", f c.Hierarchy.accesses);
    ("cachesim.l1.misses", f c.Hierarchy.l1_misses);
    ("cachesim.l2.misses", f c.Hierarchy.l2_misses);
    ("cachesim.l3.misses", f c.Hierarchy.l3_misses);
    ("cachesim.tlb.misses", f c.Hierarchy.tlb_misses);
    ( "cachesim.l1.hit_ratio",
      if c.Hierarchy.accesses = 0 then 0.0
      else 1.0 -. (f c.Hierarchy.l1_misses /. f c.Hierarchy.accesses) );
  ]

let overhead spans =
  let cost = span_cost_s () in
  [ ("trace.overhead_s", cost *. float_of_int spans); ("trace.spans", float_of_int spans) ]

let walls ~untraced ~traced =
  [ ("untraced_wall_s", Json.Float untraced); ("traced_wall_s", Json.Float traced) ]

let paper_suite_traced a =
  let programs = Hb_suite.build_programs () in
  let pool = Par.create ~name:"suite" ~jobs:Hb_suite.domains () in
  let untraced, wall_untraced =
    timed (fun () -> Hb_suite.run_pass pool ~seed:a.seed ~traced:false programs)
  in
  Par.shutdown pool;
  let obs = Obs.create () in
  let tpool = Par.create ~obs ~name:"suite" ~jobs:Hb_suite.domains () in
  let traced, wall_traced =
    timed (fun () -> Hb_suite.run_pass tpool ~seed:a.seed ~traced:true programs)
  in
  Par.shutdown tpool;
  let table, spans = finish_trace a obs in
  let cell_total =
    List.fold_left (fun acc (n, _, tot, _) -> if n = "cell" then acc +. tot else acc) 0.0 table
  in
  let plans = Hb_suite.plans traced in
  let sum_plans f = float_of_int (List.fold_left (fun acc (_, p) -> acc + f p) 0 plans) in
  let ladder, ladder_problems =
    ladder_values ~seed:a.seed (List.map (fun (w, t, _) -> (w, t)) programs)
  in
  let cells = untraced @ traced in
  {
    t_attempted = List.length cells;
    t_failed = Hb_suite.failed cells;
    t_problems =
      Hb_suite.check_pass untraced @ Hb_suite.check_pass traced
      @ (if Hb_suite.rows_digest untraced = Hb_suite.rows_digest traced then []
         else [ "decomposed cells' Runner.to_json rows differ from Runner.run's" ])
      @ (if List.length plans = List.length programs then []
         else [ "traced pass produced fewer HALO plans than workloads" ])
      @ Hb_suite.check_plans programs plans
      @ ladder_problems;
    t_values =
      ladder
      @ cache_values (Hb_suite.cache_counts traced)
      @ [
          ("stage.profile_s", self_of table "Profiler.profile");
          ("stage.derive_s", self_of table "Pipeline.derive");
          ("stage.allocator_synthesis_s", self_of table "Pipeline.instantiate");
          ("stage.measurement_s", self_of table "Engine.run");
          ("stage.hds_plan_s", self_of table "Hds_pipeline.plan");
          ("par.idle_s", (float_of_int Hb_suite.domains *. wall_traced) -. cell_total);
          ("core.groups", sum_plans (fun p -> Array.length p.Pipeline.grouping.Grouping.groups));
          ("core.monitored_sites", sum_plans (fun p -> p.Pipeline.rewrite.Rewrite.nbits));
          ("hds.candidate_streams", float_of_int (Hb_suite.hds_streams traced));
        ]
      @ overhead spans;
    t_digest = Hb_suite.rows_digest untraced;
    t_extra = walls ~untraced:wall_untraced ~traced:wall_traced;
  }

let fleet_serve_traced a =
  let jobs, d = Hb_fleet.setup ~seed:a.seed ~name:"untraced" in
  let untraced, wall_untraced = timed (fun () -> Hb_fleet.run_pass d jobs) in
  let jobs, d = Hb_fleet.setup ~seed:a.seed ~name:"traced" in
  let obs = Obs.create () in
  let traced, wall_traced = timed (fun () -> Hb_fleet.run_pass ~obs d jobs) in
  let _, spans = finish_trace a obs in
  let store, store_record = Hb_fleet.store_layer ~trials:5 d in
  let ladder, ladder_problems =
    ladder_values ~seed:a.seed
      (List.map (fun w -> (w, w.Workload.make Workload.Test)) Workloads.all)
  in
  let lat kind = Hb_fleet.kind_latencies traced kind in
  let stat = Hb_fleet.stat traced in
  let nj = List.length traced.Hb_fleet.latencies in
  {
    t_attempted = nj + List.length untraced.Hb_fleet.latencies;
    t_failed = traced.Hb_fleet.errors + untraced.Hb_fleet.errors;
    t_problems =
      (if untraced.Hb_fleet.digest = traced.Hb_fleet.digest then []
       else [ "traced fleet response stream differs from the untraced one" ])
      @ ladder_problems;
    t_values =
      ladder @ store
      @ [
          ("serve.proto.parse_us", traced.Hb_fleet.parse_s *. 1e6 /. float_of_int (max 1 nj));
          ("serve.request_latency_p50_us", median (lat "plan-request") *. 1e6);
          ("serve.record_latency_p50_ms", median (lat "profile-record") *. 1e3);
          ("serve.plan.misses", float_of_int (stat [ "plan"; "misses" ]));
          ("serve.plan.invalidations", float_of_int (stat [ "plan"; "invalidations" ]));
          ( "serve.profile_runs",
            float_of_int (stat [ "jobs"; "profile-record" ] + stat [ "plan"; "derived_by_profiling" ]) );
        ]
      @ overhead spans;
    t_digest = untraced.Hb_fleet.digest;
    t_extra =
      walls ~untraced:wall_untraced ~traced:wall_traced
      @ [
          ("record_jobs", Json.Int (List.length (lat "profile-record")));
          ("request_jobs", Json.Int (List.length (lat "plan-request")));
          ("store", store_record);
        ];
  }

let tenant_mix_traced a =
  let sched, programs = Hb_mix.setup () in
  let untraced, wall_untraced = timed (fun () -> Hb_mix.run_pass ~seed:a.seed sched) in
  let obs = Obs.create () in
  let traced, wall_traced = timed (fun () -> Hb_mix.run_pass ~obs ~seed:a.seed sched) in
  let _, spans = finish_trace a obs in
  let rate = Hb_mix.schedule_events_per_s ~seed:a.seed ~reps:50 sched in
  let ladder, ladder_problems = ladder_values ~seed:a.seed programs in
  let r = traced.Hb_mix.report in
  let digest p = p.Hb_mix.report.Traffic_mix.exec_digest in
  {
    t_attempted = untraced.Hb_mix.events + traced.Hb_mix.events;
    t_failed = 0;
    t_problems =
      Hb_mix.check_pass untraced @ Hb_mix.check_pass traced
      @ (if digest untraced = digest traced then []
         else [ "traced mix exec digest differs from the untraced one" ])
      @ ladder_problems;
    t_values =
      ladder
      @ cache_values r.Traffic_mix.counters
      @ [
          ("traffic.schedule.events_per_s", rate);
          ("traffic.replans", float_of_int r.Traffic_mix.replans);
          ("traffic.profile_runs", float_of_int r.Traffic_mix.profile_runs);
        ]
      @ overhead spans;
    t_digest = digest untraced;
    t_extra = walls ~untraced:wall_untraced ~traced:wall_traced;
  }

(* ------------------------------------------------------------------ *)
(* Result assembly                                                     *)
(* ------------------------------------------------------------------ *)

let config_record a =
  match a.workload with
  | "paper-suite" -> Hb_suite.config_record
  | "fleet-serve" -> Hb_fleet.config_record
  | _ -> Hb_mix.config_record

let print_table a ms =
  let t =
    Table.create
      ~title:(Printf.sprintf "halobench %s (seed %d, trace %b)" a.workload a.seed a.trace)
      ~headers:[ "metric"; "value"; "unit" ] ()
  in
  Table.set_aligns t [ Table.Left; Table.Right; Table.Left ];
  List.iter
    (fun m ->
      let na =
        match List.assoc_opt m.name workload_only with
        | Some owner -> owner <> a.workload
        | None -> false
      in
      Table.add_row t [ m.name; (if na then "n/a" else Printf.sprintf "%.6g" m.value); m.unit_ ])
    ms;
  prerr_string (Table.render t);
  prerr_newline ()

(* Everything a run reports, whichever mode produced it. *)
type report = {
  r_attempted : int;
  r_failed : int;
  r_problems : string list;
  r_metrics : metric list;
  r_digest : string;
  r_record : (string * Json.t) list;
}

let untraced_report a =
  let results, setup_only = timed_passes a in
  let setups = setup_only @ results in
  let passes = List.filter_map Result.to_option results in
  let ok_setups = List.filter_map Result.to_option setups in
  let dead = List.length results - List.length passes in
  let per_pass = jobs_per_pass a in
  let plan_problems =
    if a.workload <> "paper-suite" then []
    else begin
      (* Runner.run keeps its plans to itself; re-plan off the clock. *)
      let programs = Hb_suite.build_programs () in
      Hb_suite.check_plans programs
        (Par.map ~jobs:Hb_suite.domains
           (fun (w, test, _) -> (w, Pipeline.plan ~config:(Hb_ladder.halo_config w) test))
           programs)
    end
  in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 passes in
  (* Every time is reported at the reference speed (Hb_common), each
     worker's at its own process's: one process runs at one speed for
     much of its life, and the kernel samples it took around its pass
     follow that speed. Scaled per pass, fleet-serve's wall_s
     spread 5% over three seeds; scaled by the whole run's samples, 16%;
     raw, 20%. *)
  let speed p = reference_ms /. mean p.reference_ms in
  let latencies = List.concat_map (fun p -> List.map (( *. ) (speed p)) p.latencies) passes in
  let values = match passes with p :: _ -> p.values | [] -> [] in
  let digests = List.map (fun p -> p.digest) passes in
  let problems =
    List.concat_map (fun p -> p.problems) passes
    @ List.filter_map (function Error e -> Some e | Ok _ -> None) setups
    @ (if all_equal digests then [] else [ "output digest differs between passes of one seed" ])
    @ (if all_equal (List.map (fun p -> p.values) passes) then []
       else [ "deterministic metrics differ between passes of one seed" ])
    @ plan_problems
    @ (if List.for_all (fun p -> p.attempted = per_pass) passes then []
       else [ Printf.sprintf "a pass attempted other than the stream's %d jobs" per_pass ])
  in
  let attempted = per_pass * List.length results in
  let failed = sum (fun p -> p.failed) + (dead * per_pass) in
  let value name =
    match name with
    | "setup_s" -> median (List.map (fun p -> speed p *. p.setup_s) ok_setups)
    | "wall_s" -> median (List.map (fun p -> speed p *. p.wall_s) passes)
    | "peak_heap_mb" -> median (List.map (fun p -> p.heap_mb) passes)
    | "success_rate" -> float_of_int (attempted - failed) /. float_of_int (max 1 attempted)
    | "job_latency_p50_ms" -> median latencies *. 1e3
    | "job_latency_p99_ms" -> percentile latencies 0.99 *. 1e3
    | _ -> Option.value ~default:1.0 (List.assoc_opt name values)
  in
  {
    r_attempted = attempted;
    r_failed = failed;
    r_problems = problems;
    r_metrics = List.map (fun (name, unit_) -> metric name unit_ (value name)) end_to_end;
    r_digest = (match digests with d :: _ -> d | [] -> "");
    r_record =
      [
        ( "samples",
          Json.Obj
            [
              ("setup", Json.Int (List.length ok_setups));
              ("wall", Json.Int (List.length passes));
              ("job_latency", Json.Int (List.length latencies));
            ] );
        (* Raw samples; the time metrics scale each by its worker's [speed]. *)
        ("pass_reference_samples_ms", Json.List (List.map (fun p -> floats p.reference_ms) passes));
        ("pass_speeds", floats (List.map speed passes));
        ("wall_samples_s", floats (List.map (fun p -> p.wall_s) passes));
        ("setup_samples_s", floats (List.map (fun p -> p.setup_s) ok_setups));
        ("heap_samples_mb", floats (List.map (fun p -> p.heap_mb) passes));
      ];
  }

let traced_report a =
  let t =
    match a.workload with
    | "paper-suite" -> paper_suite_traced a
    | "fleet-serve" -> fleet_serve_traced a
    | _ -> tenant_mix_traced a
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name per_layer) then failwith ("undeclared metric " ^ name))
    t.t_values;
  {
    r_attempted = t.t_attempted;
    r_failed = t.t_failed;
    r_problems = t.t_problems;
    r_metrics =
      List.map
        (fun (name, unit_) ->
          metric name unit_ (Option.value ~default:0.0 (List.assoc_opt name t.t_values)))
        per_layer;
    r_digest = t.t_digest;
    r_record = t.t_extra @ [ ("trace_file", Json.String (trace_path a)) ];
  }

let run a =
  let calibration = calibration_loops_per_s () in
  let r = if a.trace then traced_report a else untraced_report a in
  print_table a r.r_metrics;
  List.iter (fun p -> log "CHECK FAILED: %s" p) r.r_problems;
  let correct =
    r.r_problems = [] && r.r_failed = 0 && List.for_all (fun m -> Float.is_finite m.value) r.r_metrics
  in
  let record =
    Json.Obj
      [
        ( "halobench_record",
          Json.Obj
            ([
               ("workload", Json.String a.workload);
               ("seed", Json.Int a.seed);
               ("seconds", Json.Float a.seconds);
               ("trace", Json.Bool a.trace);
               ( "fingerprint",
                 Json.Obj
                   (a.fingerprint
                   @ [
                       ("ocaml", Json.String Sys.ocaml_version);
                       ("recommended_domains", Json.Int (Domain.recommended_domain_count ()));
                       ( "worker_domains",
                         Json.Int (if a.workload = "paper-suite" then Hb_suite.domains else 1) );
                       ("calibration_loops_per_s", Json.Float calibration);
                     ]) );
               ("output_digest", Json.String r.r_digest);
               ("problems", Json.List (List.map (fun p -> Json.String p) r.r_problems));
             ]
            @ config_record a @ r.r_record) );
      ]
  in
  print_endline (Json.to_string ~pretty:false record);
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int r.r_attempted);
        ("failed", Json.Int r.r_failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun m ->
                 (m.name, Json.Obj [ ("value", Json.Float m.value); ("unit", Json.String m.unit_) ]))
               r.r_metrics) );
      ]
  in
  print_endline (Json.to_string ~pretty:false result)

let usage () =
  prerr_endline
    "usage: halobench.exe run --workload (paper-suite|fleet-serve|tenant-mix) --seed N \
     --seconds S --trace (0|1) [--meta KEY=VALUE]...\n\
    \       halobench.exe metrics | selftest";
  exit 2

(* [run] arguments, plus the worker's [--spawned-at NS] and [--setup-only]. *)
let parse_run argv =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let meta = ref [] and spawned_at = ref None and setup_only = ref false in
  let int_arg s = match int_of_string_opt s with Some i -> i | None -> usage () in
  let rec go = function
    | "--workload" :: w :: rest -> workload := Some w; go rest
    | "--seed" :: s :: rest -> seed := Some (int_arg s); go rest
    | "--seconds" :: s :: rest -> seconds := Some (float_of_int (int_arg s)); go rest
    | "--trace" :: t :: rest -> trace := Some (int_arg t <> 0); go rest
    | "--spawned-at" :: ns :: rest -> spawned_at := Int64.of_string_opt ns; go rest
    | "--setup-only" :: rest -> setup_only := true; go rest
    | "--meta" :: kv :: rest ->
        (match String.index_opt kv '=' with
        | Some i ->
            meta :=
              (String.sub kv 0 i, Json.String (String.sub kv (i + 1) (String.length kv - i - 1)))
              :: !meta
        | None -> usage ());
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go argv;
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some seed, Some seconds, Some trace when List.mem w workloads ->
      ({ workload = w; seed; seconds; trace; fingerprint = List.rev !meta }, !spawned_at, !setup_only)
  | _ -> usage ()

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "metrics" ] ->
      let l ms =
        Json.List
          (List.map (fun (n, u) -> Json.Obj [ ("name", Json.String n); ("unit", Json.String u) ]) ms)
      in
      print_endline
        (Json.to_string ~pretty:false
           (Json.Obj
              [
                ("end_to_end", l end_to_end);
                ("per_layer", l per_layer);
                ("workloads", Json.List (List.map (fun w -> Json.String w) workloads));
              ]))
  | [ "selftest" ] -> exit (Hb_selftest.run ())
  | "run" :: rest -> (
      match parse_run rest with a, None, _ -> run a | _ -> usage ())
  | "worker" :: rest -> (
      match parse_run rest with
      | a, Some spawned_at, setup_only ->
          print_endline (Json.to_string ~pretty:false (json_of_pass (worker_pass a ~spawned_at ~setup_only)))
      | _ -> usage ())
  | _ -> usage ()
