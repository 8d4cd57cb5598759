(* Integration tests for the experiment harness: the headline result
   shapes that EXPERIMENTS.md reports must hold for the committed
   workloads, so a regression in any pipeline stage shows up here. These
   run the real measurement machinery on test-friendly subsets. *)

let checkb = Alcotest.check Alcotest.bool

let w name = Option.get (Workloads.find name)

let count_spans obs name =
  List.length (List.filter (fun (sp : Obs.span) -> sp.Obs.name = name) (Obs.spans obs))

let run_json m = Json.to_string (Runner.to_json m)

let health_ordering () =
  (* health: HALO > HDS > 0 on both metrics, per Figures 13/14. *)
  let hw = w "health" in
  let base = Runner.run hw Runner.Jemalloc in
  let halo = Runner.run hw Runner.Halo in
  let hds = Runner.run hw Runner.Hds in
  let mr m = Runner.miss_reduction_vs ~baseline:base m in
  checkb "halo reduces misses" true (mr halo > 0.05);
  checkb "hds reduces misses" true (mr hds > 0.02);
  checkb "halo beats hds" true (mr halo > mr hds);
  checkb "halo speeds up" true (Runner.speedup_vs ~baseline:base halo > 0.05)

let povray_wrapper_defeats_hds () =
  let pw = w "povray" in
  let base = Runner.run pw Runner.Jemalloc in
  let halo = Runner.run pw Runner.Halo in
  let hds = Runner.run pw Runner.Hds in
  checkb "halo reduces misses" true
    (Runner.miss_reduction_vs ~baseline:base halo > 0.05);
  checkb "hds achieves nothing" true
    (Float.abs (Runner.miss_reduction_vs ~baseline:base hds) < 0.05)

let roms_hds_degrades () =
  let rw = w "roms" in
  let base = Runner.run rw Runner.Jemalloc in
  let halo = Runner.run rw Runner.Halo in
  let hds = Runner.run rw Runner.Hds in
  checkb "hds increases misses" true
    (Runner.miss_reduction_vs ~baseline:base hds < 0.0);
  checkb "halo does not degrade" true
    (Runner.miss_reduction_vs ~baseline:base halo >= -0.01)

let instrumentation_overhead_noise () =
  (* §5.2: the BOLT-instrumented binary without the allocator is noise. *)
  let hw = w "health" in
  let base = Runner.run hw Runner.Jemalloc in
  let ctrl = Runner.run hw Runner.Halo_no_alloc in
  checkb "overhead within 1%" true
    (Float.abs (Runner.speedup_vs ~baseline:base ctrl) < 0.01)

let jemalloc_beats_ptmalloc () =
  let hw = w "health" in
  let je = Runner.run hw Runner.Jemalloc in
  let pt = Runner.run hw Runner.Ptmalloc in
  checkb "jemalloc fewer misses" true
    (je.Runner.counters.Hierarchy.l1_misses
    < pt.Runner.counters.Hierarchy.l1_misses)

let measurements_deterministic () =
  let hw = w "ft" in
  let a = Runner.run hw Runner.Halo in
  let b = Runner.run hw Runner.Halo in
  Alcotest.check Alcotest.int "same misses"
    a.Runner.counters.Hierarchy.l1_misses b.Runner.counters.Hierarchy.l1_misses;
  Alcotest.check Alcotest.int "same instructions" a.Runner.instructions
    b.Runner.instructions

let halo_details_populated () =
  let m = Runner.run (w "ft") Runner.Halo in
  match m.Runner.halo with
  | None -> Alcotest.fail "halo details missing"
  | Some h ->
      checkb "groups" true (h.Runner.groups >= 1);
      checkb "sites monitored" true (h.Runner.monitored_sites >= 1);
      checkb "grouped traffic" true (h.Runner.grouped_mallocs > 100)

let hds_details_populated () =
  let m = Runner.run (w "ft") Runner.Hds in
  match m.Runner.hds with
  | None -> Alcotest.fail "hds details missing"
  | Some h ->
      checkb "trace collected" true (h.Runner.trace_length > 1000);
      checkb "streams counted" true (h.Runner.stream_count > 0)

(* Figure 12's sweep as a grid: distance 128 is the default config, so
   its cell is the plain HALO cell and runs once. *)
let fig12_sweep_runs () =
  let ow = w "omnetpp" in
  let at a =
    Figures.cell
      ~config:
        { Pipeline.default_config with
          Pipeline.profiler =
            { Profiler.default_config with Profiler.affinity_distance = a } }
      ow Runner.Halo
  in
  let obs = Obs.create () in
  let get =
    Figures.measurement
      (Figures.run_cells ~obs ~jobs:2
         [ Figures.cell ow Runner.Jemalloc; at 8; at 128; Figures.cell ow Runner.Halo ])
  in
  Alcotest.check Alcotest.int "three distinct runs" 3 (count_spans obs "run");
  Alcotest.check Alcotest.string "the default distance is the HALO cell"
    (run_json (get (Figures.cell ow Runner.Halo)))
    (run_json (get (at 128)));
  checkb "a speedup per distance" true
    (List.for_all
       (fun a ->
         Float.is_finite
           (Runner.speedup_vs ~baseline:(get (Figures.cell ow Runner.Jemalloc)) (get (at a))))
       [ 8; 128 ])

(* Figures 13-15, Table 1 and the diagnostics, rendered from one grid
   run, are the first five blocks of [figures all]: each rendered section
   paired with the golden bytes at its offset and the byte after them. *)
let suite_blocks =
  lazy
    (let sections = Figures.[ fig13; fig14; fig15; tab1; hds_diagnostics ] in
     let results = Figures.run_cells (List.concat_map (fun s -> s.Figures.cells) sections) in
     let golden = In_channel.with_open_bin "golden/all.txt" In_channel.input_all in
     snd
       (List.fold_left_map
          (fun off s ->
            let got = Table.render (s.Figures.render results) in
            let len = String.length got in
            (off + len + 1, (got, String.sub golden off len, golden.[off + len])))
          0 sections))

let check_block i =
  let got, want, next = List.nth (Lazy.force suite_blocks) i in
  Alcotest.check Alcotest.string "the block of all.txt" want got;
  Alcotest.check Alcotest.char "a block ends there" '\n' next

let suite_tables_render () = List.iter check_block [ 0; 1; 2; 4 ]

let tab1_renders_for_frag_workload () = check_block 3

let identification_granularity_ordering () =
  (* §2.2.3 / §3: immediate site < xor-4 < full context, with xor-4 dying
     exactly on deep call chains (xalanc). *)
  let xw = w "xalanc" in
  let base = Runner.run xw Runner.Jemalloc in
  let site = Runner.run xw (Runner.Ident_window 1) in
  let xor4 = Runner.run xw (Runner.Ident_window 4) in
  let halo = Runner.run xw Runner.Halo in
  let mr m = Runner.miss_reduction_vs ~baseline:base m in
  checkb "site fails on xalanc" true (Float.abs (mr site) < 0.05);
  checkb "xor-4 fails on deep chains" true (Float.abs (mr xor4) < 0.05);
  checkb "full context wins" true (mr halo > 0.1);
  let pw = w "povray" in
  let pbase = Runner.run pw Runner.Jemalloc in
  checkb "xor-4 recovers shallow contexts (povray)" true
    (Runner.miss_reduction_vs ~baseline:pbase
       (Runner.run pw (Runner.Ident_window 4))
    > 0.05)

let sharded_backend_shapes () =
  (* §6 future work: sharding must preserve the miss reduction and
     dramatically cut leela's fragmentation. *)
  let lw = w "leela" in
  let base = Runner.run lw Runner.Jemalloc in
  let frag_of m =
    match m.Runner.halo with
    | Some h -> h.Runner.frag.Group_alloc.frag_pct
    | None -> Alcotest.fail "missing halo details"
  in
  let bump = Runner.run lw Runner.Halo in
  let cfg =
    { Pipeline.default_config with
      Pipeline.allocator =
        { Pipeline.default_config.Pipeline.allocator with
          Group_alloc.backend = Group_alloc.Sharded_free_lists } }
  in
  let sharded = Runner.run ~pipeline_config:cfg lw Runner.Halo in
  checkb "sharding keeps the miss reduction" true
    (Runner.miss_reduction_vs ~baseline:base sharded
    >= Runner.miss_reduction_vs ~baseline:base bump -. 0.02);
  checkb "sharding slashes fragmentation" true
    (frag_of sharded < 0.5 *. frag_of bump)

let suite_parallel_equivalence () =
  (* The tentpole invariant: every suite cell is an independent
     simulation, so fanning the workload×kind grid over a domain pool
     must not perturb a single measurement. *)
  let cells =
    List.concat_map
      (fun name -> List.map (Figures.cell (w name)) Figures.suite_kinds)
      [ "ft"; "health" ]
  in
  let seq = Figures.measurement (Figures.run_cells ~jobs:1 cells) in
  let par = Figures.measurement (Figures.run_cells ~jobs:4 cells) in
  List.iter
    (fun c ->
      Alcotest.check Alcotest.string "cell identical across jobs" (run_json (seq c))
        (run_json (par c)))
    cells

(* A traced measurement with the hierarchy on a helper (when a core is
   spare) and inline (every spare core held): the same measurement and the
   same sampled miss streams, value for value. *)
let helper_measurement_unchanged () =
  let measure () =
    let buf = Buffer.create 65536 in
    let obs = Obs.create ~trace:(Obs.Buffer buf) () in
    let m = Runner.run ~obs (w "ft") Runner.Jemalloc in
    Obs.finish obs;
    let cache_events =
      String.split_on_char '\n' (Buffer.contents buf)
      |> List.filter_map (fun line ->
             let n = String.length line in
             match Json.of_string (if n > 0 then String.sub line 1 (n - 1) else line) with
             | Ok ev when Json.get_string "ph" ev = Ok "C" ->
                 let args = Option.get (Json.mem "args" ev) in
                 Some
                   ( Json.get_string "name" ev,
                     Json.get_float "value" args,
                     Json.get_int "accesses" args )
             | _ -> None)
    in
    let helped =
      List.mem_assoc "cache.stream.producer_wait_s"
        (Metrics.snapshot (Obs.metrics obs))
    in
    (Json.to_string (Runner.to_json m), cache_events, helped)
  in
  let spare = Par.spare_cores () in
  let m1, e1, helped = measure () in
  checkb "a helper iff a core is spare" (spare >= 1) helped;
  let held = max 0 spare in
  ignore (Par.reserve held : int);
  let m2, e2, inline_helped =
    Fun.protect ~finally:(fun () -> Par.release held) measure
  in
  checkb "inline with every core held" false inline_helped;
  Alcotest.(check string) "same measurement" m2 m1;
  checkb "miss streams sampled" true (List.length e2 > 100);
  checkb "same miss-stream events" true (e1 = e2)

(* The executor runs each distinct cell once, however often the grid
   lists it. *)
let grid_runs_a_repeated_cell_once () =
  let c = Figures.cell (w "ft") Runner.Jemalloc in
  let obs = Obs.create () in
  let r = Figures.run_cells ~obs ~jobs:2 [ c; c; Figures.cell ~seed:2 (w "ft") Runner.Jemalloc ] in
  ignore (Figures.measurement r c : Runner.measurement);
  Alcotest.check Alcotest.int "one run span" 1 (count_spans obs "run")

(* Plans depend on the program and config, not the measurement seed:
   three seeds of HALO and HDS make one plan of each. *)
let grid_plans_once_per_program () =
  let ft = w "ft" in
  (* The identification kinds measure under the stock HALO plan too, and
     merged packing re-packs the HDS plan. *)
  let cells =
    List.concat_map
      (fun seed -> [ Figures.cell ~seed ft Runner.Halo; Figures.cell ~seed ft Runner.Hds ])
      [ 2; 3; 4 ]
    @ List.map (Figures.cell ft)
        [ Runner.Ident_window 1; Runner.Ident_window 4; Runner.Hds_merged_packing ]
  in
  let obs = Obs.create () in
  ignore (Figures.run_cells ~obs ~jobs:2 cells : Figures.results);
  let counter name =
    match List.assoc_opt name (Metrics.snapshot (Obs.metrics obs)) with
    | Some (Metrics.Counter n) -> n
    | _ -> 0
  in
  Alcotest.check Alcotest.int "one profile" 1 (counter "profile.runs");
  Alcotest.check Alcotest.int "two plans, one of each" 2 (count_spans obs "plan");
  Alcotest.check Alcotest.int "nine runs" 9 (count_spans obs "run")

(* Derivation never reads the allocator config: a sharded-backend cell
   shares the stock plan, and still measures under its own backend. *)
let grid_plan_key_leaves_out_the_allocator () =
  let lw = w "leela" in
  let sharded =
    { Pipeline.default_config with
      Pipeline.allocator =
        { Pipeline.default_config.Pipeline.allocator with
          Group_alloc.backend = Group_alloc.Sharded_free_lists } }
  in
  let bump_cell = Figures.cell lw Runner.Halo in
  let sharded_cell = Figures.cell ~config:sharded lw Runner.Halo in
  let obs = Obs.create () in
  let r = Figures.run_cells ~obs ~jobs:2 [ bump_cell; sharded_cell ] in
  Alcotest.check Alcotest.int "one plan" 1 (count_spans obs "plan");
  Alcotest.check Alcotest.int "one profile" 1 (count_spans obs "profile");
  Alcotest.check Alcotest.string "the sharded cell measures as a sharded run"
    (run_json (Runner.run ~pipeline_config:sharded lw Runner.Halo))
    (run_json (Figures.measurement r sharded_cell));
  checkb "and differs from the bump cell" true
    (run_json (Figures.measurement r sharded_cell)
    <> run_json (Figures.measurement r bump_cell))

let grid_jobs_invariant () =
  let cells =
    List.concat_map
      (fun wl ->
        List.map (Figures.cell wl)
          [ Runner.Jemalloc; Runner.Halo; Runner.Halo_no_alloc; Runner.Hds;
            Runner.Hds_merged_packing ])
      [ w "ft"; w "health" ]
  in
  let drifts = List.map (fun cadence -> Figures.drift_cell ~drift:1.0 ~cadence) [ 0; 2 ] in
  let results jobs =
    let r = Figures.run_cells ~jobs (cells @ drifts) in
    List.map (fun c -> run_json (Figures.measurement r c)) cells
    @ List.map
        (fun c -> Json.to_string (Traffic_mix.report_to_json (Figures.mix_report r c)))
        drifts
  in
  Alcotest.(check (list string)) "jobs 1 = jobs 2" (results 1) (results 2)

(* The drift figure's rows: each cell is one Traffic_mix.run at the
   figure's traffic shape, under the grid's stock HALO plan of each
   workload its hot sets name (5 of the 11), and each drift's cadence-0
   row is the stale anchor, which never beats itself. *)
let drift_rows () =
  let s = Figures.drift_study in
  let obs = Obs.create () in
  let r = Figures.run_cells ~obs ~jobs:2 s.Figures.cells in
  Alcotest.check Alcotest.int "one profile per adopted workload" 5 (count_spans obs "profile");
  let direct =
    Traffic_mix.run
      ~config:{ Traffic_mix.default_config with Traffic_mix.reprofile_every = 2 }
      ~seed:1
      (Schedule.drifting ~ticks_per_phase:2 ~rate:3.0 ~phases:4 ~drift:1.0 ())
  in
  Alcotest.(check string) "a drift cell is one Traffic_mix.run"
    (Json.to_string (Traffic_mix.report_to_json direct))
    (Json.to_string
       (Traffic_mix.report_to_json
          (Figures.mix_report r (Figures.drift_cell ~drift:1.0 ~cadence:2))));
  let rows =
    String.split_on_char '\n' (Table.render (s.Figures.render r))
    |> List.filter_map (fun line ->
           match List.map String.trim (String.split_on_char '|' line) with
           | [ ""; drift; cadence; _; _; _; net; verdict; "" ] when drift <> "drift" ->
               Some (drift, cadence, net, verdict)
           | _ -> None)
  in
  Alcotest.(check int) "3 drifts x 3 cadences" 9 (List.length rows);
  let anchors = List.filter (fun (_, cadence, _, _) -> cadence = "never") rows in
  Alcotest.(check (list string)) "one stale anchor per drift" [ "0"; "0.5"; "1" ]
    (List.map (fun (d, _, _, _) -> d) anchors);
  List.iter
    (fun (_, _, net, verdict) ->
      Alcotest.(check string) "stale anchor has zero net speedup" "+0.00%" net;
      Alcotest.(check string) "anchor never beats itself" "stale baseline" verdict)
    anchors

let suite =
  let tc name f = Alcotest.test_case name `Slow f in
  [
    tc "health: HALO > HDS > baseline" health_ordering;
    tc "povray: wrapper defeats HDS, not HALO" povray_wrapper_defeats_hds;
    tc "roms: HDS degrades, HALO neutral" roms_hds_degrades;
    tc "instrumentation overhead is noise" instrumentation_overhead_noise;
    tc "jemalloc beats ptmalloc" jemalloc_beats_ptmalloc;
    tc "measurements deterministic" measurements_deterministic;
    tc "halo run details populated" halo_details_populated;
    tc "hds run details populated" hds_details_populated;
    tc "figure 12 sweep runs" fig12_sweep_runs;
    tc "suite tables render" suite_tables_render;
    tc "table 1 renders" tab1_renders_for_frag_workload;
    tc "identification granularity ordering" identification_granularity_ordering;
    tc "sharded backend shapes" sharded_backend_shapes;
    tc "suite parallel equivalence" suite_parallel_equivalence;
    tc "helper measurement unchanged" helper_measurement_unchanged;
    tc "grid: a repeated cell runs once" grid_runs_a_repeated_cell_once;
    tc "grid: one plan per program across seeds" grid_plans_once_per_program;
    tc "grid: the allocator stays out of the plan key"
      grid_plan_key_leaves_out_the_allocator;
    tc "grid: results identical at any jobs" grid_jobs_invariant;
    tc "grid: drift rows" drift_rows;
  ]
