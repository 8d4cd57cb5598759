(* Benchmark harness.

   Two halves:

   - the experiment harness, which regenerates every table and figure of
     the paper's evaluation (Figures 12-15, Table 1, the Section 5.1
     baseline comparison, the Section 5.2 instrumentation control and
     model-size diagnostics, plus two ablations) with the reproduction's
     measured values printed beside the paper's reported ones;

   - Bechamel micro-benchmarks of the core algorithms (one Test.make per
     component), which measure the toolchain itself rather than the
     simulated machine.

   Usage:
     dune exec bench/main.exe                 # experiments + micro-benches
     dune exec bench/main.exe -- experiments  # experiments only
     dune exec bench/main.exe -- micro        # micro-benches only
     dune exec bench/main.exe -- obs          # telemetry-overhead comparison
     dune exec bench/main.exe -- fig12 | fig13 | fig14 | fig15 | tab1
                               | sec51 | overhead | diag | ablation

   `--seed N` (anywhere on the command line) pins the measurement input
   seed for the suite-backed figures (fig13/14/15, tab1, diag) and sets
   the base seed for `trials N`, making benchmark runs reproducible.

   `--jobs N` (anywhere on the command line) fans the suite's
   workload×config×seed cells out over N worker domains (default: the
   runtime's recommended domain count). Every cell simulates its own
   machine, so tables are bit-identical at any N; the Bechamel
   micro-benches and the obs-overhead comparison stay sequential because
   they measure wall-clock throughput of this host.

   `--plan-cache DIR` (anywhere on the command line) routes suite-backed
   runs through the persistent plan cache: a warmed cache answers every
   Pipeline.plan call from disk, so no run re-profiles.

   `--check BENCH_<date>.json` (anywhere on the command line) turns the
   run into a regression gate: the hot path is measured (if the chosen
   subcommand didn't already) and compared against the committed baseline
   file — exit 1 if events/s or wall time regresses beyond
   `--check-threshold` (default 0.10). `--handicap F` multiplies every
   measured hot-path duration by F, a test hook that proves the gate
   trips on a synthetic slowdown.

   Every invocation appends a machine-readable record of what it ran to
   `BENCH_<date>.json` in the working directory (per-suite wall time and
   events/s with per-trial quantiles, plan-cache hit rate, label and run
   config) — CI uploads it as an artifact so cache effectiveness is
   visible per run. *)

let seed_override = ref None

let jobs_override = ref None

let jobs () =
  match !jobs_override with Some j -> max 1 j | None -> Par.default_jobs ()

let plan_cache_dir = ref None

let plan_cache_memo = ref None

let plan_cache () =
  match !plan_cache_dir with
  | None -> None
  | Some dir -> (
      match !plan_cache_memo with
      | Some c -> Some c
      | None ->
          let c = Plan_cache.create dir in
          plan_cache_memo := Some c;
          Some c)

let plan_source () = Option.map Plan_cache.source (plan_cache ())

(* `--label` names the run in BENCH_<date>.json's hotpath section, so a
   baseline measurement and a post-optimisation one sit side by side in
   the same-day artifact. *)
let bench_label = ref "current"

(* `--check FILE` gates the run against a committed BENCH_<date>.json:
   exit 1 when throughput or wall time regresses beyond the threshold.
   `--handicap F` multiplies every measured hot-path duration by F — a
   test hook that injects a synthetic slowdown to prove the gate trips. *)
let check_file = ref None
let check_threshold = ref Bench_check.default_threshold
let handicap = ref 1.0

(* ------------------------------------------------------------------ *)
(* BENCH_<date>.json: per-suite wall time and cache effectiveness.     *)
(* ------------------------------------------------------------------ *)

let bench_records : (string * float * Plan_cache.stats) list ref = ref []

(* (workload, config, events, median events/s, per-trial events/s) rows
   from `--hotpath`. *)
let hotpath_records : (string * string * int * float * float list) list ref =
  ref []

(* Suite-level events/s where one is meaningful (filled by `--hotpath`:
   total events over total measured time). *)
let suite_eps : (string, float) Hashtbl.t = Hashtbl.create 4

let cache_snapshot () =
  match plan_cache () with
  | Some c -> Plan_cache.stats c
  | None -> { Plan_cache.hits = 0; misses = 0; stores = 0; evictions = 0 }

let timed name f =
  let before = cache_snapshot () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let after = cache_snapshot () in
  let delta =
    {
      Plan_cache.hits = after.Plan_cache.hits - before.Plan_cache.hits;
      misses = after.Plan_cache.misses - before.Plan_cache.misses;
      stores = after.Plan_cache.stores - before.Plan_cache.stores;
      evictions = after.Plan_cache.evictions - before.Plan_cache.evictions;
    }
  in
  bench_records := (name, dt, delta) :: !bench_records;
  r

let bench_date () =
  let tm = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday

let write_bench_report () =
  match !bench_records with
  | [] -> ()
  | records ->
      let path = Printf.sprintf "BENCH_%s.json" (bench_date ()) in
      (* Same-day invocations accumulate: a cold run followed by a warmed
         --plan-cache run leaves both wall times side by side in one
         artifact — likewise a `--label baseline` hotpath run followed by
         a `--label optimised` one. *)
      let earlier_fields =
        if not (Sys.file_exists path) then []
        else
          match Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
          | Ok (Json.Obj fields) -> fields
          | _ -> []
      in
      let earlier_list key =
        match List.assoc_opt key earlier_fields with
        | Some (Json.List l) -> l
        | _ -> []
      in
      let earlier = earlier_list "suites" in
      (* Per-trial quantiles through the same sketch every exporter uses;
         with few trials p50/p90/p99 collapse towards the extremes, but
         the shape is forward-compatible with longer campaigns. *)
      let percentiles trials =
        match trials with
        | [] -> []
        | _ ->
            let h = Metrics.histogram (Metrics.create ()) "eps" in
            List.iter (Metrics.observe h) trials;
            let q p =
              match Metrics.quantile h p with
              | Some v -> Json.Float v
              | None -> Json.Null
            in
            [
              ( "percentiles",
                Json.Obj [ ("p50", q 0.5); ("p90", q 0.9); ("p99", q 0.99) ] );
            ]
      in
      let hotpath =
        earlier_list "hotpath"
        @ List.rev_map
            (fun (workload, config, events, eps, trials) ->
              Json.Obj
                ([
                   ("label", Json.String !bench_label);
                   ("workload", Json.String workload);
                   ("config", Json.String config);
                   ("events", Json.Int events);
                   ("events_per_s", Json.Float eps);
                 ]
                @ percentiles trials))
            !hotpath_records
      in
      let run_config =
        Json.Obj
          [
            ("jobs", Json.Int (jobs ()));
            ( "seed",
              match !seed_override with Some s -> Json.Int s | None -> Json.Null );
            ("plan_cache", Json.Bool (Option.is_some !plan_cache_dir));
          ]
      in
      let suites =
        List.rev_map
          (fun (name, wall, s) ->
            Json.Obj
              [
                ("name", Json.String name);
                ("label", Json.String !bench_label);
                ("config", run_config);
                ("wall_s", Json.Float wall);
                ( "events_per_sec",
                  match Hashtbl.find_opt suite_eps name with
                  | Some eps -> Json.Float eps
                  | None -> Json.Null );
                ( "cache",
                  Json.Obj
                    [
                      ("hits", Json.Int s.Plan_cache.hits);
                      ("misses", Json.Int s.Plan_cache.misses);
                      ("stores", Json.Int s.Plan_cache.stores);
                      ("evictions", Json.Int s.Plan_cache.evictions);
                      ("hit_rate", Json.Float (Plan_cache.hit_rate s));
                    ] );
              ])
          records
      in
      let j =
        Json.Obj
          [
            ("date", Json.String (bench_date ()));
            ("jobs", Json.Int (jobs ()));
            ( "plan_cache_dir",
              match !plan_cache_dir with
              | Some d -> Json.String d
              | None -> Json.Null );
            ("suites", Json.List (earlier @ suites));
            ("hotpath", Json.List hotpath);
          ]
      in
      let oc = open_out path in
      output_string oc (Json.to_string ~pretty:true j);
      output_char oc '\n';
      close_out oc;
      Printf.eprintf "  [bench] wrote %s\n%!" path

let suite_memo = ref None

let suite () =
  match !suite_memo with
  | Some s -> s
  | None ->
      let progress line = Printf.eprintf "  [suite] %s\n%!" line in
      let seeds = Option.map (fun s -> [ s ]) !seed_override in
      let s =
        timed "suite" (fun () ->
            Figures.run_suite ?seeds ~progress ~jobs:(jobs ())
              ?plan_source:(plan_source ()) ())
      in
      suite_memo := Some s;
      s

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks.                                          *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let bench_jemalloc =
    let vmem = Vmem.create () in
    let alloc = Jemalloc_sim.create vmem in
    Test.make ~name:"jemalloc_sim.malloc+free"
      (Staged.stage (fun () ->
           let a = alloc.Alloc_iface.malloc 48 in
           alloc.Alloc_iface.free a))
  in
  let bench_group_alloc =
    let vmem = Vmem.create () in
    let fallback = Jemalloc_sim.create vmem in
    let galloc =
      Group_alloc.create ~classify:(fun ~size:_ -> Some 0) ~fallback vmem
    in
    let iface = Group_alloc.iface galloc in
    Test.make ~name:"group_alloc.malloc+free"
      (Staged.stage (fun () ->
           let a = iface.Alloc_iface.malloc 48 in
           iface.Alloc_iface.free a))
  in
  let bench_cache =
    let h = Hierarchy.create () in
    let counter = ref 0 in
    Test.make ~name:"hierarchy.access"
      (Staged.stage (fun () ->
           incr counter;
           Hierarchy.access h (!counter * 40 land 0xFFFFF) 8))
  in
  let bench_affinity_queue =
    let heap = Heap_model.create () in
    let objs =
      Array.init 64 (fun k ->
          Heap_model.on_alloc heap ~addr:(0x1000 + (k * 64)) ~size:32
            ~ctx:(k mod 4))
    in
    let q =
      Affinity_queue.create ~affinity_distance:128 ~heap
        ~on_affinity:(fun _ _ -> ())
        ()
    in
    let counter = ref 0 in
    Test.make ~name:"affinity_queue.add"
      (Staged.stage (fun () ->
           incr counter;
           ignore (Affinity_queue.add q objs.(!counter land 63) ~bytes:8 : bool)))
  in
  let bench_sequitur =
    Test.make ~name:"sequitur.push(1k, period 25)"
      (Staged.stage (fun () ->
           let t = Sequitur.create () in
           for k = 0 to 999 do
             Sequitur.push t (k mod 25)
           done))
  in
  let bench_grouping =
    (* A fixed 40-node graph with 8 hot cliques. *)
    let g = Affinity_graph.create () in
    for c = 0 to 7 do
      for a = 0 to 4 do
        for b = a + 1 to 4 do
          for _ = 0 to 9 do
            Affinity_graph.add_affinity g ((c * 5) + a) ((c * 5) + b)
          done
        done;
        for _ = 0 to 99 do
          Affinity_graph.add_access g ((c * 5) + a)
        done
      done
    done;
    Test.make ~name:"grouping.group(40 nodes)"
      (Staged.stage (fun () ->
           ignore (Grouping.group g Grouping.default_params : Grouping.t)))
  in
  let bench_shadow =
    let s = Shadow_stack.create () in
    Test.make ~name:"shadow_stack.push/reduce/pop(depth 12)"
      (Staged.stage (fun () ->
           for d = 0 to 11 do
             Shadow_stack.push s ~func:(string_of_int (d land 3)) ~site:(d * 16)
           done;
           ignore (Shadow_stack.reduced s : int array);
           for _ = 0 to 11 do
             Shadow_stack.pop s
           done))
  in
  [
    bench_jemalloc;
    bench_group_alloc;
    bench_cache;
    bench_affinity_queue;
    bench_sequitur;
    bench_grouping;
    bench_shadow;
  ]

let run_micro () =
  let open Bechamel in
  let open Bechamel.Toolkit in
  print_endline "Micro-benchmarks (Bechamel; ns per run, OLS estimate):";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:(Some 1000) ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> Printf.sprintf "%12.1f ns/run" x
            | _ -> "(no estimate)"
          in
          Printf.printf "  %-42s %s\n%!" name ns)
        analysis)
    (micro_tests ())

(* ------------------------------------------------------------------ *)
(* Telemetry-overhead comparison.                                      *)
(*                                                                     *)
(* The observability layer must be zero-cost when disabled: with       *)
(* [?obs] omitted, Interp/Hierarchy/Group_alloc construct the exact    *)
(* closures the seed built, so "obs off" below IS the seed interpreter *)
(* — the acceptance bar is off-vs-seed throughput within 2%, which     *)
(* holds by construction and is confirmed here by measuring identical  *)
(* code twice. "obs on" quantifies what full telemetry (metrics +      *)
(* buffered JSONL sink) costs when you do switch it on.                *)
(* ------------------------------------------------------------------ *)

let run_obs_overhead () =
  let time_measurement w ~obs =
    let program = w.Workload.make Workload.Ref in
    let vmem = Vmem.create () in
    let alloc = Jemalloc_sim.create vmem in
    let hier = Hierarchy.create ?obs () in
    let hooks =
      {
        Interp.no_hooks with
        Interp.on_access = (fun addr size _w -> Hierarchy.access hier addr size);
      }
    in
    let interp = Interp.create ~seed:2 ~hooks ?obs ~program ~alloc () in
    let t0 = Unix.gettimeofday () in
    ignore (Interp.run interp : int);
    let dt = Unix.gettimeofday () -. t0 in
    float_of_int (Interp.instructions interp) /. dt
  in
  let median l =
    let a = List.sort compare l in
    List.nth a (List.length a / 2)
  in
  let trials = 5 in
  let workloads = [ "health"; "omnetpp"; "leela" ] in
  let t =
    Table.create ~title:"interpreter throughput: telemetry off vs on"
      ~headers:
        [ "workload"; "obs off (Minstr/s)"; "obs on (Minstr/s)"; "on/off" ]
      ()
  in
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let off =
        median (List.init trials (fun _ -> time_measurement w ~obs:None))
      in
      let on =
        median
          (List.init trials (fun _ ->
               let buf = Buffer.create (1 lsl 16) in
               let obs = Obs.create ~sink:(Trace.to_buffer buf) () in
               let r = time_measurement w ~obs:(Some obs) in
               Obs.finish obs;
               r))
      in
      Table.add_row t
        [
          name;
          Printf.sprintf "%.1f" (off /. 1e6);
          Printf.sprintf "%.1f" (on /. 1e6);
          Printf.sprintf "%.3f" (on /. off);
        ];
      Printf.eprintf "  [obs] %s done\n%!" name)
    workloads;
  Table.print t;
  print_endline
    "(obs off is bit-identical to the seed interpreter: ?obs omitted\n\
    \ compiles the uninstrumented closures; within-2%-of-seed holds by\n\
    \ construction, modulo timer noise across the two runs.)"

(* ------------------------------------------------------------------ *)
(* Hot-path throughput: events/s of the simulate/profile inner loop.   *)
(*                                                                     *)
(* One "event" is one executed load or store — the unit every per-     *)
(* access hook pays for. The count comes from a bare uninstrumented    *)
(* run: hooks never touch the program's Rand stream, so the interp,    *)
(* simulate and profile configurations all replay exactly the same     *)
(* event trace and their wall times are directly comparable.           *)
(* ------------------------------------------------------------------ *)

let run_hotpath () =
  let seed = Option.value !seed_override ~default:2 in
  (* Gated runs take extra trials: the gate judges best-of-trials, and
     more draws make the best a stabler estimate of uncontended speed. *)
  let trials = if !check_file <> None then 5 else 3 in
  let median l =
    let a = List.sort compare l in
    List.nth a (List.length a / 2)
  in
  let config_names = [ "interp"; "simulate"; "profile" ] in
  let t =
    Table.create
      ~title:
        (Printf.sprintf "hot-path throughput (label %S, seed %d)" !bench_label
           seed)
      ~headers:[ "workload"; "config"; "events"; "Mevents/s" ]
      ()
  in
  let totals = Hashtbl.create 8 in
  let record workload config events eps trial_eps =
    hotpath_records :=
      (workload, config, events, eps, trial_eps) :: !hotpath_records;
    Table.add_row t
      [
        workload; config; string_of_int events; Printf.sprintf "%.2f" (eps /. 1e6);
      ]
  in
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      let program = w.Workload.make Workload.Ref in
      let bare () =
        let vmem = Vmem.create () in
        let alloc = Jemalloc_sim.create vmem in
        Interp.create ~seed ~program ~alloc ()
      in
      let events =
        let interp = bare () in
        ignore (Interp.run interp : int);
        let loads, stores = Interp.load_store_counts interp in
        loads + stores
      in
      let configs =
        [
          ( "interp",
            fun () ->
              let interp = bare () in
              ignore (Interp.run interp : int) );
          ( "simulate",
            fun () ->
              let vmem = Vmem.create () in
              let alloc = Jemalloc_sim.create vmem in
              let hier = Hierarchy.create () in
              let hooks =
                {
                  Interp.no_hooks with
                  Interp.on_access =
                    (fun addr size _w -> Hierarchy.access hier addr size);
                }
              in
              let interp = Interp.create ~seed ~hooks ~program ~alloc () in
              ignore (Interp.run interp : int) );
          ( "profile",
            fun () ->
              ignore
                (Profiler.profile
                   ~config:{ Profiler.default_config with Profiler.seed }
                   program
                  : Profiler.result) );
        ]
      in
      List.iter
        (fun (cname, f) ->
          let times =
            List.init trials (fun _ ->
                let t0 = Unix.gettimeofday () in
                f ();
                (Unix.gettimeofday () -. t0) *. !handicap)
          in
          let dt = median times in
          let eps = float_of_int events /. dt in
          let trial_eps = List.map (fun d -> float_of_int events /. d) times in
          record name cname events eps trial_eps;
          let e0, d0 =
            Option.value (Hashtbl.find_opt totals cname) ~default:(0, 0.)
          in
          Hashtbl.replace totals cname (e0 + events, d0 +. dt);
          Printf.eprintf "  [hotpath] %s/%s: %.2f Mevents/s\n%!" name cname
            (eps /. 1e6))
        configs)
    [ "health"; "omnetpp"; "leela" ];
  List.iter
    (fun cname ->
      match Hashtbl.find_opt totals cname with
      | Some (e, d) -> record "all" cname e (float_of_int e /. d) []
      | None -> ())
    config_names;
  let all_events, all_dt =
    Hashtbl.fold (fun _ (e, d) (te, td) -> (te + e, td +. d)) totals (0, 0.0)
  in
  if all_dt > 0.0 then
    Hashtbl.replace suite_eps "hotpath" (float_of_int all_events /. all_dt);
  Table.print t

(* ------------------------------------------------------------------ *)
(* Serve-mode fleet benchmark: plan-cache hit rate, merge throughput   *)
(* and job-latency quantiles of the continuous-profiling daemon under  *)
(* a simulated fleet. Jobs/s feeds the --check gate as the             *)
(* "serve/fleet" hotpath row (handicap applies, so the gate's          *)
(* self-test covers this suite too).                                   *)
(* ------------------------------------------------------------------ *)

let run_serve () =
  let seed = Option.value !seed_override ~default:1 in
  let cfg =
    {
      Serve_sim.default_config with
      Serve_sim.clients = 400;
      rounds = 10;
      seed;
      serve =
        {
          Serve.default_config with
          Serve.jobs = jobs ();
          cache = plan_cache ();
        };
    }
  in
  let r = Serve_sim.run cfg in
  Table.print (Serve_sim.report_table r);
  let eps = r.Serve_sim.jobs_per_sec /. !handicap in
  hotpath_records :=
    ("serve", "fleet", r.Serve_sim.jobs_total, eps, [ eps ])
    :: !hotpath_records;
  Hashtbl.replace suite_eps "serve" eps;
  Printf.eprintf
    "  [serve] %d jobs, %.0f jobs/s, plan hit rate %.1f%%, %d profiler runs\n%!"
    r.Serve_sim.jobs_total eps
    (100.0 *. r.Serve_sim.plan_hit_rate)
    r.Serve_sim.profile_runs

(* ------------------------------------------------------------------ *)
(* Traffic benchmark: the shared-heap mix executor on a drifting       *)
(* multi-tenant schedule, plus the drift-rate x reprofile-cadence      *)
(* study fanned out over the worker pool. Rows feed the --check gate   *)
(* as traffic/<row> hotpath entries (handicap applies).                *)
(* ------------------------------------------------------------------ *)

let run_traffic () =
  let seed = Option.value !seed_override ~default:1 in
  (* Wall-clock rows are scheduler-noise-bound, so each is the median of
     several timed trials of the same deterministic computation — the
     same defence the hot-path suite uses. *)
  let median l =
    let a = List.sort compare l in
    List.nth a (List.length a / 2)
  in
  let row name events times =
    let times = List.map (fun t -> t *. !handicap) times in
    let dt = median times in
    let eps = float_of_int events /. dt in
    let trial_eps = List.map (fun t -> float_of_int events /. t) times in
    hotpath_records := ("traffic", name, events, eps, trial_eps) :: !hotpath_records;
    eps
  in
  let trials n f =
    let out = ref None in
    let times =
      List.init n (fun _ ->
          let t0 = Unix.gettimeofday () in
          out := Some (f ());
          Unix.gettimeofday () -. t0)
    in
    (Option.get !out, times)
  in
  (* One representative mix run: executor throughput in simulated
     accesses/s over a drifting schedule with a live re-profile cadence. *)
  let sched =
    Schedule.drifting ~phases:4 ~ticks_per_phase:2 ~rate:6.0 ~drift:0.5 ()
  in
  let mix, mix_times =
    trials 3 (fun () ->
        Traffic_mix.run
          ~config:
            { Traffic_mix.default_config with Traffic_mix.reprofile_every = 2 }
          ~seed sched)
  in
  Table.print (Traffic_mix.report_table mix);
  print_newline ();
  let mix_eps =
    row "mix-exec" mix.Traffic_mix.counters.Hierarchy.accesses mix_times
  in
  (* The full drift study at the configured worker count. *)
  let study, study_times =
    trials 2 (fun () ->
        Traffic_study.run ~jobs:(jobs ())
          { Traffic_study.default_params with Traffic_study.seed })
  in
  Table.print (Traffic_study.table study);
  let study_jobs =
    List.fold_left
      (fun acc c -> acc + c.Traffic_study.c_report.Traffic_mix.jobs)
      0 study.Traffic_study.cells
  in
  let study_eps = row "study" study_jobs study_times in
  Hashtbl.replace suite_eps "traffic" study_eps;
  Printf.eprintf
    "  [traffic] mix %.2f Maccesses/s (median of %d), study %d jobs at %.0f \
     jobs/s (median of %d)\n\
     %!"
    (mix_eps /. 1e6) (List.length mix_times) study_jobs study_eps
    (List.length study_times)

(* ------------------------------------------------------------------ *)
(* Store codec benchmark: encode and decode+merge throughput, and      *)
(* sharded-merge throughput over a synthetic fleet of >= 1000          *)
(* profiles, with the byte-identity acceptance asserted inline. Rows   *)
(* feed the --check gate as store/<row> hotpath entries.               *)
(* ------------------------------------------------------------------ *)

let run_store () =
  let seed0 = Option.value !seed_override ~default:1 in
  let n_profiles = 1200 in
  let fail_store e = failwith (Store.error_to_string e) in
  let rok = function Ok v -> v | Error e -> fail_store e in
  (* A handful of distinct synthetic base recordings (same notional
     program, different seeds — mergeable by construction), replicated
     to fleet size. Synthetic rather than profiled so the payload is
     big enough (hundreds of contexts, thousands of edges) that codec
     throughput, not per-file fixed costs, is what gets measured. *)
  let digest = "feedc0defeedc0defeedc0defeedc0de" in
  let synth_result seed =
    let n_ctx = 400 and edges_per_ctx = 6 in
    let tbl = Context.create () in
    let raw = Affinity_graph.create () in
    for k = 0 to n_ctx - 1 do
      let id =
        Context.intern tbl
          [| 0x1000 + k; 0x2000 + (k mod 97); 0x3000 + (k mod 31) |]
      in
      Affinity_graph.add_access_n raw id (1 + ((k * seed) mod 911))
    done;
    for k = 0 to (edges_per_ctx * n_ctx) - 1 do
      let x = k mod n_ctx and y = ((k * 7919) + 13 + seed) mod n_ctx in
      if x <> y then Affinity_graph.add_affinity_n raw x y (1 + (k mod 53))
    done;
    {
      Profiler.graph = Affinity_graph.filter_top raw ~coverage:0.9;
      raw_graph = raw;
      contexts = tbl;
      total_accesses = Affinity_graph.total_accesses raw;
      tracked_allocs = n_ctx;
      instructions = 1_000_000 + seed;
    }
  in
  let base =
    List.init 6 (fun k ->
        let config =
          { Profiler.default_config with Profiler.seed = seed0 + k }
        in
        (config, synth_result (seed0 + k)))
  in
  let nbase = List.length base in
  let reps = n_profiles / nbase in
  let tmp i =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "halo-bench-store-%d-%d.bin" (Unix.getpid ()) i)
  in
  let rows = ref [] in
  let row name events eps =
    let eps = eps /. !handicap in
    hotpath_records := ("store", name, events, eps, [ eps ]) :: !hotpath_records;
    rows := (name, events, eps) :: !rows
  in
  (* Encode: every base artifact written [reps] times; events = bytes on
     disk, so the row reads as bytes/s. *)
  let bytes = ref 0 in
  let t0 = Unix.gettimeofday () in
  List.iteri
    (fun i (config, result) ->
      let path = tmp i in
      for _ = 1 to reps do
        rok
          (Store.write_profile ~created:0.0 ~producer:"bench" ~path
             ~program_digest:digest ~config result)
      done;
      bytes := !bytes + ((Unix.stat path).Unix.st_size * reps))
    base;
  let dt = Unix.gettimeofday () -. t0 in
  row "encode-v2" !bytes (float_of_int !bytes /. dt);
  (* Decode + sequential merge: the fleet-aggregation inner loop;
     events = profiles folded. *)
  let t0 = Unix.gettimeofday () in
  let arts =
    List.init n_profiles (fun k ->
        (rok (Store.read_profile (tmp (k mod nbase))), 1.0))
  in
  let merged_seq = rok (Store.merge_profiles_sharded ~jobs:1 arts) in
  let dt_seq = Unix.gettimeofday () -. t0 in
  row "decode-merge-v2" n_profiles (float_of_int n_profiles /. dt_seq);
  (* Sharded merge over the decoded fleet at the full worker count. *)
  let t0 = Unix.gettimeofday () in
  let merged_sharded =
    rok (Store.merge_profiles_sharded ~jobs:(jobs ()) arts)
  in
  let dt_sharded = Unix.gettimeofday () -. t0 in
  let sharded_eps = float_of_int n_profiles /. dt_sharded in
  row "sharded-merge" n_profiles sharded_eps;
  Hashtbl.replace suite_eps "store" sharded_eps;
  (* Acceptance: the sharded and sequential folds produce one merged
     artifact, byte for byte. *)
  let merged_bytes (config, result) =
    let path = tmp 99 in
    rok
      (Store.write_profile ~created:0.0 ~producer:"bench" ~path
         ~program_digest:digest ~config result);
    let b = In_channel.with_open_bin path In_channel.input_all in
    Sys.remove path;
    b
  in
  if not (String.equal (merged_bytes merged_seq) (merged_bytes merged_sharded))
  then failwith "store bench: sharded merge is not byte-identical to sequential";
  List.iteri (fun i _ -> Sys.remove (tmp i)) base;
  let t =
    Table.create
      ~title:
        (Printf.sprintf "store codec: %d synthetic profiles, %d jobs"
           n_profiles (jobs ()))
      ~headers:[ "row"; "events"; "rate" ] ()
  in
  Table.set_aligns t [ Table.Left; Table.Right; Table.Right ];
  List.iter
    (fun (name, events, eps) ->
      let rate =
        if String.length name >= 6 && String.sub name 0 6 = "encode" then
          Printf.sprintf "%s/s" (Table.fmt_bytes (int_of_float eps))
        else Printf.sprintf "%.0f profiles/s" eps
      in
      Table.add_row t [ name; string_of_int events; rate ])
    (List.rev !rows);
  Table.print t;
  Printf.eprintf
    "  [store] decode+merge %.2fs, sharded %.0f profiles/s, byte-identity \
     ok\n%!"
    dt_seq sharded_eps

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                           *)
(* ------------------------------------------------------------------ *)

let run_experiments () =
  timed "experiments" (fun () ->
      Figures.print_all ~jobs:(jobs ()) ?plan_source:(plan_source ()) ())

(* The regression gate: measure the hot path (unless this invocation
   already did), compare throughput and wall time against the committed
   baseline, exit 1 on any regression beyond the threshold. *)
let run_check () =
  match !check_file with
  | None -> ()
  | Some path -> (
      if !hotpath_records = [] then timed "hotpath" run_hotpath;
      match Bench_check.load path with
      | Error e ->
          Printf.eprintf "bench --check: %s\n%!" e;
          exit 2
      | Ok baseline ->
          let threshold = !check_threshold in
          (* Judge best-of-trials, not the median: contention from a noisy
             neighbour only ever slows a trial down, so the fastest trial
             is the robust estimate of what this tree can do. *)
          let current_tp =
            List.rev_map
              (fun (w, c, _events, eps, trials) ->
                (w, c, List.fold_left Float.max eps trials))
              !hotpath_records
          in
          let current_wall =
            List.rev_map (fun (name, wall, _) -> (name, wall)) !bench_records
          in
          let verdicts =
            Bench_check.check_throughput ~threshold baseline current_tp
            @ Bench_check.check_wall ~threshold baseline ~label:!bench_label
                ~jobs:(jobs ()) current_wall
          in
          print_newline ();
          Table.print
            (Bench_check.table
               ~title:
                 (Printf.sprintf "bench --check vs %s (threshold %.0f%%)" path
                    (100.0 *. threshold))
               verdicts);
          (match Bench_check.warnings verdicts with
          | [] -> ()
          | keys ->
              Printf.eprintf
                "  [bench] warn: no baseline for %s (gate passes; commit rows \
                 to set the bar)\n\
                 %!"
                (String.concat ", " keys));
          if Bench_check.any_regressed verdicts then begin
            Printf.eprintf "  [bench] REGRESSION beyond %.0f%% vs %s\n%!"
              (100.0 *. threshold) path;
            write_bench_report ();
            exit 1
          end
          else Printf.eprintf "  [bench] check ok vs %s\n%!" path)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec strip_flags acc = function
    | "--seed" :: n :: rest ->
        (match int_of_string_opt n with
        | Some s -> seed_override := Some s
        | None ->
            Printf.eprintf "--seed: not an integer: %S\n" n;
            exit 2);
        strip_flags acc rest
    | "--jobs" :: n :: rest ->
        (match int_of_string_opt n with
        | Some j -> jobs_override := Some j
        | None ->
            Printf.eprintf "--jobs: not an integer: %S\n" n;
            exit 2);
        strip_flags acc rest
    | "--plan-cache" :: dir :: rest ->
        plan_cache_dir := Some dir;
        strip_flags acc rest
    | "--label" :: l :: rest ->
        bench_label := l;
        strip_flags acc rest
    | "--check" :: path :: rest ->
        check_file := Some path;
        strip_flags acc rest
    | "--check-threshold" :: f :: rest ->
        (match float_of_string_opt f with
        | Some t when t > 0.0 -> check_threshold := t
        | _ ->
            Printf.eprintf "--check-threshold: not a positive number: %S\n" f;
            exit 2);
        strip_flags acc rest
    | "--handicap" :: f :: rest ->
        (match float_of_string_opt f with
        | Some h when h > 0.0 ->
            handicap := h;
            if h <> 1.0 then bench_label := !bench_label ^ "+handicap"
        | _ ->
            Printf.eprintf "--handicap: not a positive number: %S\n" f;
            exit 2);
        strip_flags acc rest
    | [ ("--seed" | "--jobs" | "--plan-cache" | "--label" | "--check"
        | "--check-threshold" | "--handicap") as flag ] ->
        Printf.eprintf "%s: missing value\n" flag;
        exit 2
    | a :: rest -> strip_flags (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = strip_flags [] args in
  (match args with
  | [] when !check_file <> None ->
      (* Bare `--check FILE`: the gate itself runs the hot path. *)
      ()
  | [] ->
      run_experiments ();
      print_newline ();
      timed "micro" run_micro
  | [ "experiments" ] -> run_experiments ()
  | [ "trials"; n ] ->
      (* §5.1-style multi-trial run: distinct input seeds, medians with
         25th/75th-percentile error bars in Figures 13-15. *)
      let n = int_of_string n in
      let base = Option.value !seed_override ~default:2 in
      let seeds = List.init n (fun k -> base + (3 * k)) in
      let progress line = Printf.eprintf "  [suite] %s\n%!" line in
      let suite =
        timed
          (Printf.sprintf "trials-%d" n)
          (fun () ->
            Figures.run_suite ~seeds ~progress ~jobs:(jobs ())
              ?plan_source:(plan_source ()) ())
      in
      Table.print (Figures.fig13 suite);
      print_newline ();
      Table.print (Figures.fig14 suite);
      print_newline ();
      Table.print (Figures.fig15 suite)
  | [ "micro" ] -> timed "micro" run_micro
  | [ "serve" ] -> timed "serve" run_serve
  | [ "store" ] -> timed "store" run_store
  | [ "traffic" ] -> timed "traffic" run_traffic
  | [ "obs" ] -> timed "obs" run_obs_overhead
  | [ "--hotpath" ] -> timed "hotpath" run_hotpath
  | [ "fig12" ] -> Table.print (timed "fig12" Figures.fig12)
  | [ "fig13" ] -> Table.print (Figures.fig13 (suite ()))
  | [ "fig14" ] -> Table.print (Figures.fig14 (suite ()))
  | [ "fig15" ] -> Table.print (Figures.fig15 (suite ()))
  | [ "tab1" ] -> Table.print (Figures.tab1 (suite ()))
  | [ "sec51" ] -> Table.print (timed "sec51" Figures.sec51_baseline)
  | [ "overhead" ] -> Table.print (timed "overhead" Figures.overhead_control)
  | [ "diag" ] -> Table.print (Figures.hds_diagnostics (suite ()))
  | [ "ablation" ] ->
      timed "ablation" (fun () ->
          Table.print (Figures.ablation_grouping ());
          print_newline ();
          Table.print (Figures.ablation_packing ());
          print_newline ();
          Table.print (Figures.ablation_identification ());
          print_newline ();
          Table.print (Figures.ablation_backend ());
          print_newline ();
          Table.print (Figures.ablation_sampling ()))
  | _ ->
      prerr_endline
        "usage: main.exe \
         [experiments|trials N|micro|serve|store|traffic|obs|--hotpath|fig12|fig13|fig14|fig15|tab1|sec51|overhead|diag|ablation] \
         [--seed N] [--jobs N] [--plan-cache DIR] [--label NAME] \
         [--check BENCH.json] [--check-threshold F] [--handicap F]";
      exit 2);
  run_check ();
  write_bench_report ()
