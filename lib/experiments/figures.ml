let suite_kinds = [ Runner.Jemalloc; Runner.Halo; Runner.Hds; Runner.Random_pools 4 ]

(* ------------------------------------------------------------------ *)
(* The cell grid                                                       *)
(* ------------------------------------------------------------------ *)

(* The grouping ablation's clusterers as data, so cells compare with [=]. *)
type clusterer = Fig6 | Modularity | Hcs | Threshold

let group_fn = function
  | Fig6 -> None
  | Modularity ->
      Some (fun g p -> Clustering.as_grouping g p (Clustering.modularity g))
  | Hcs -> Some (fun g p -> Clustering.as_grouping g p (Clustering.hcs g))
  | Threshold ->
      Some
        (fun g (p : Grouping.params) ->
          Clustering.as_grouping g p
            (Clustering.threshold_components
               ~min_weight:p.Grouping.min_edge_weight g))

type run = {
  w : Workload.t;
  kind : Runner.kind;
  seed : int;
  config : Pipeline.config;
  clusterer : clusterer;
}

type cell = Run of run | Drift of { drift : float; cadence : int }

let run_cell ?(seed = 2) ?(config = Pipeline.default_config) ?(clusterer = Fig6) w
    kind =
  Run { w; kind; seed; config; clusterer }

let cell ?seed ?config w kind = run_cell ?seed ?config w kind
let drift_cell ~drift ~cadence = Drift { drift; cadence }

(* A workload holds closures, so its name stands for it in a key. *)
let run_key c = (c.w.Workload.name, c.kind, c.seed, c.config, c.clusterer)

let key = function
  | Run c -> `Run (run_key c)
  | Drift { drift; cadence } -> `Drift (drift, cadence)

let dedup key xs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun x -> (not (Hashtbl.mem seen (key x))) && (Hashtbl.add seen (key x) (); true))
    xs

let stock w =
  { w; kind = Runner.Halo; seed = 2; config = Pipeline.default_config; clusterer = Fig6 }

(* The run that stands for [c]'s plan: a plan depends on the workload's
   Test program (a pure function of its name) and the config, never on
   the measurement seed. Every kind that HALO's profiler plans waits on
   the stock plan: another clusterer regroups its profile, and the
   identification kinds group it by names. Derivation never reads the
   allocator config, so it stays out of a HALO plan's key. Both HDS kinds
   wait on the [Hds] plan, which merged packing re-packs. *)
let plan_run c =
  match c.kind with
  | Runner.Halo | Halo_no_alloc | Ident_window _ ->
      let config =
        { c.config with
          Pipeline.allocator = Pipeline.default_config.Pipeline.allocator }
      in
      Some { (stock c.w) with config }
  | Hds | Hds_merged_packing -> Some { c with kind = Runner.Hds; seed = 2 }
  | _ -> None

(* The drift figure's traffic: all 11 workloads, 4 phases of 2 ticks at
   3 jobs per tick, traffic seed 1. *)
let drift_seed = 1

let drift_mix ~drift ~cadence =
  ( { Traffic_mix.default_config with Traffic_mix.reprofile_every = cadence },
    Schedule.drifting ~ticks_per_phase:2 ~rate:3.0 ~phases:4 ~drift () )

(* A drift cell adopts the stock HALO plans of the workloads its hot sets
   name. *)
let plan_runs = function
  | Run c -> Option.to_list (plan_run c)
  | Drift { drift; cadence } ->
      let config, sched = drift_mix ~drift ~cadence in
      let hot = List.concat_map snd (Traffic_mix.hot_sets ~config ~seed:drift_seed sched) in
      List.filter_map
        (fun w -> if List.mem w.Workload.name hot then Some (stock w) else None)
        Workloads.all

let make_plan ?obs ?plan_source c =
  Obs.span obs "plan"
    ~attrs:
      [
        ("workload", Json.String c.w.Workload.name);
        ("configuration", Json.String (Runner.kind_name c.kind));
      ]
    (fun () ->
      match c.kind with
      | Runner.Hds -> Runner.Hds_plan (Runner.plan_hds c.w)
      | _ ->
          Runner.Halo_plan
            (Runner.plan_halo ?obs ?plan_source ~pipeline_config:c.config c.w))

type result = Measured of Runner.measurement | Mixed of Traffic_mix.report
type results = cell -> result

let measurement (results : results) c =
  match results c with
  | Measured m -> m
  | Mixed _ -> invalid_arg "Figures.measurement: a drift cell"

let mix_report (results : results) c =
  match results c with
  | Mixed r -> r
  | Measured _ -> invalid_arg "Figures.mix_report: a measurement cell"

(* Run one cell under the plans [plan_of] awaits. A measurement cell
   measures with its own allocator config (its workload's override
   applied), and one under another clusterer regroups the stock plan's
   profile. A drift cell adopts the stock plan of each workload its hot
   sets name. *)
let run_one ?obs plan_of = function
  | Run c ->
      let plan =
        Option.map
          (fun run ->
            match plan_of run with
            | Runner.Halo_plan p ->
                let config = Workload.pipeline_config c.w c.config in
                Runner.Halo_plan
                  (match group_fn c.clusterer with
                  | None -> { p with Pipeline.config }
                  | Some group_fn ->
                      Pipeline.derive ?obs ~config ~group_fn p.Pipeline.profile)
            | hds -> hds)
          (plan_run c)
      in
      Measured (Runner.run ?obs ~seed:c.seed ~pipeline_config:c.config ?plan c.w c.kind)
  | Drift { drift; cadence } ->
      let config, sched = drift_mix ~drift ~cadence in
      Mixed
        (Traffic_mix.run ?obs ~config
           ~plan_for:(fun w ->
             match plan_of (stock w) with
             | Runner.Halo_plan p -> p
             | Runner.Hds_plan _ -> invalid_arg "Figures: an HDS plan for a drift cell")
           ~seed:drift_seed sched)

let label = function
  | Run c ->
      Printf.sprintf "%s/%s (seed %d)" c.w.Workload.name (Runner.kind_name c.kind)
        c.seed
  | Drift { drift; cadence } -> Printf.sprintf "drift %g/cadence %d" drift cadence

(* One pool runs the grid. Plans go first, the largest affinity distance
   (the profiler's cost driver) first; then the cells that need no plan;
   then the planned cells, each awaiting its plan's future. Tasks start in
   submission order, so every plan has started before a cell waits on it.
   Each task builds its own programs, allocators and interpreter, so the
   results are identical at any worker count. *)
let run_cells ?jobs ?obs ?plan_source ?(progress = fun _ -> ()) cells =
  let cells = dedup key cells in
  let distance c = c.config.Pipeline.profiler.Profiler.affinity_distance in
  let plans =
    List.stable_sort
      (fun a b -> compare (distance b) (distance a))
      (dedup run_key (List.concat_map plan_runs cells))
  in
  let unplanned, planned = List.partition (fun c -> List.is_empty (plan_runs c)) cells in
  let progress =
    (* Workers report completion concurrently; serialise the callback. *)
    let mu = Mutex.create () in
    fun line -> Mutex.protect mu (fun () -> progress line)
  in
  let tasks = List.length plans + List.length cells in
  let jobs = min tasks (Option.value jobs ~default:(Par.default_jobs ())) in
  Obs.span obs "cells.map" ~attrs:[ ("tasks", Json.Int tasks) ] (fun () ->
      let pool = Par.create ?obs ~name:"cells" ~jobs () in
      Fun.protect
        ~finally:(fun () -> Par.shutdown pool)
        (fun () ->
          let plan_of = Hashtbl.create 64 in
          List.iter
            (fun p ->
              Hashtbl.replace plan_of (run_key p)
                (Par.submit pool (fun wobs -> make_plan ?obs:wobs ?plan_source p)))
            plans;
          (* The table is complete before the first cell is submitted. *)
          let await p = Par.await (Hashtbl.find plan_of (run_key p)) in
          let submit c =
            Par.submit pool (fun wobs ->
                let r = run_one ?obs:wobs await c in
                progress (label c ^ " done");
                r)
          in
          let cells = unplanned @ planned in
          let results = Hashtbl.create 64 in
          List.iter2
            (fun c f -> Hashtbl.replace results (key c) (Par.await f))
            cells (List.map submit cells);
          fun c -> Hashtbl.find results (key c)))

(* ------------------------------------------------------------------ *)
(* Sections: each figure's cells and its table                         *)
(* ------------------------------------------------------------------ *)

type section = { name : string; cells : cell list; render : results -> Table.t }

(* One entry of a section's table: the cells it reads and how it shows
   them. *)
type entry = { needs : cell list; show : (cell -> Runner.measurement) -> string }

let text s = { needs = []; show = (fun _ -> s) }
let entry needs show = { needs; show }

let miss_red ~base c =
  entry [ base; c ] (fun get ->
      Table.fmt_pct (Runner.miss_reduction_vs ~baseline:(get base) (get c)))

let speedup ~base c =
  entry [ base; c ] (fun get ->
      Table.fmt_pct (Runner.speedup_vs ~baseline:(get base) (get c)))

let halo_detail c show =
  entry [ c ] (fun get ->
      match (get c).Runner.halo with Some h -> show h | None -> "-")

let hds_detail c show =
  entry [ c ] (fun get ->
      match (get c).Runner.hds with Some h -> show h | None -> "-")

(* §5.1's presentation of [metric] of [kind] on [w] against jemalloc at
   each of [seeds]: the value for one seed, the median with [p25, p75]
   error bars for several. *)
let across_seeds ~seeds metric w kind =
  let pairs =
    List.map (fun seed -> (cell ~seed w Runner.Jemalloc, cell ~seed w kind)) seeds
  in
  entry
    (List.concat_map (fun (base, c) -> [ base; c ]) pairs)
    (fun get ->
      match List.map (fun (base, c) -> metric ~baseline:(get base) (get c)) pairs with
      | [ v ] -> Table.fmt_pct v
      | values ->
          let s = Stats.summarize (Array.of_list values) in
          Printf.sprintf "%s [%s, %s]" (Table.fmt_pct s.Stats.median)
            (Table.fmt_pct s.Stats.p25) (Table.fmt_pct s.Stats.p75))

(* A section whose table is [rows] of entries under [headers]. *)
let table name ~title ~headers rows =
  let render results =
    let get = measurement results in
    let t = Table.create ~title:(title.show get) ~headers () in
    List.iter (fun row -> Table.add_row t (List.map (fun e -> e.show get) row)) rows;
    t
  in
  { name; cells = List.concat_map (fun e -> e.needs) (title :: List.concat rows); render }

(* The registry's workloads among [names], in registry order. *)
let registry names =
  List.filter (fun w -> List.mem w.Workload.name names) Workloads.all

let baseline w = cell w Runner.Jemalloc

let with_profiler f =
  { Pipeline.default_config with Pipeline.profiler = f Profiler.default_config }

let paper_fig13_14 bench =
  List.find_opt (fun (p : Paper_data.fig13_14) -> p.bench = bench)
    Paper_data.fig13_14

(* Figures 13 and 14: HDS and HALO, paper next to measured. *)
let hds_and_halo name ~title ~paper metric seeds =
  table name ~title:(text title)
    ~headers:
      [ "benchmark"; "HDS (paper)"; "HDS (measured)"; "HALO (paper)";
        "HALO (measured)" ]
    (List.map
       (fun w ->
         let paper pick =
           text
             (match paper_fig13_14 w.Workload.name with
             | Some p -> Table.fmt_pct (pick (paper p))
             | None -> "-")
         in
         [
           text w.Workload.name;
           paper fst;
           across_seeds ~seeds metric w Runner.Hds;
           paper snd;
           across_seeds ~seeds metric w Runner.Halo;
         ])
       Workloads.all)

let fig13_at =
  hds_and_halo "fig13"
    ~title:
      "Figure 13 — L1 D-cache miss reduction vs jemalloc (paper bars are \
       approximate reads)"
    ~paper:(fun p -> (p.Paper_data.hds_miss, p.Paper_data.halo_miss))
    Runner.miss_reduction_vs

let fig14_at =
  hds_and_halo "fig14"
    ~title:
      "Figure 14 — execution-time speedup vs jemalloc (paper bars are \
       approximate reads)"
    ~paper:(fun p -> (p.Paper_data.hds_speed, p.Paper_data.halo_speed))
    Runner.speedup_vs

let fig15_at seeds =
  table "fig15"
    ~title:
      (text
         "Figure 15 — speedup under a random 4-pool allocator (placement \
          sensitivity probe)")
    ~headers:[ "benchmark"; "paper"; "measured" ]
    (List.map
       (fun w ->
         [
           text w.Workload.name;
           text
             (match List.assoc_opt w.Workload.name Paper_data.fig15 with
             | Some p -> Table.fmt_pct p
             | None -> "-");
           across_seeds ~seeds Runner.speedup_vs w (Runner.Random_pools 4);
         ])
       Workloads.all)

let fig13 = fig13_at [ 2 ]
let fig14 = fig14_at [ 2 ]
let fig15 = fig15_at [ 2 ]
let trials = List.map (fun at -> at [ 2; 5; 8; 11; 14 ]) [ fig13_at; fig14_at; fig15_at ]

(* A fragmentation fraction as a percentage, as Table 1 prints it. *)
let pct frac = Printf.sprintf "%.2f%%" (100.0 *. frac)

let tab1 =
  table "tab1"
    ~title:
      (text
         "Table 1 — fragmentation of grouped objects at peak memory usage \
          (HALO's specialised allocator)")
    ~headers:
      [ "benchmark"; "frag % (paper)"; "frag % (measured)"; "frag bytes (paper)";
        "frag bytes (measured)" ]
    (List.filter_map
       (fun (bench, ppct, pbytes) ->
         match Workloads.find bench with
         | Some w when w.Workload.in_frag_table ->
             let c = cell w Runner.Halo in
             Some
               [
                 text bench;
                 text (pct ppct);
                 halo_detail c (fun h -> pct h.Runner.frag.Group_alloc.frag_pct);
                 text (Table.fmt_bytes pbytes);
                 halo_detail c (fun h -> Table.fmt_bytes h.Runner.frag.Group_alloc.frag_bytes);
               ]
         | _ -> None)
       Paper_data.table1)

let hds_diagnostics =
  table "diag"
    ~title:
      (text
         "Section 5.2 — model sizes: hot-data-stream candidates vs affinity \
          graph nodes (paper's roms: >150,000 streams vs 31 nodes)")
    ~headers:
      [ "benchmark"; "candidate streams"; "selected"; "coverage"; "HDS pools";
        "HALO graph nodes"; "HALO groups" ]
    (List.map
       (fun w ->
         let hds = cell w Runner.Hds and halo = cell w Runner.Halo in
         [
           text w.Workload.name;
           hds_detail hds (fun h -> string_of_int h.Runner.stream_count);
           hds_detail hds (fun h -> string_of_int h.Runner.selected_streams);
           hds_detail hds (fun h -> Printf.sprintf "%.0f%%" (100.0 *. h.Runner.hds_coverage));
           hds_detail hds (fun h -> string_of_int h.Runner.pools);
           halo_detail halo (fun a -> string_of_int a.Runner.graph_nodes);
           halo_detail halo (fun a -> string_of_int a.Runner.groups);
         ])
       Workloads.all)

let fig12 =
  let w = Option.get (Workloads.find "omnetpp") in
  let base = baseline w in
  table "fig12"
    ~title:
      (entry [ base ] (fun get ->
           Printf.sprintf
             "Figure 12 — omnetpp simulated time vs affinity distance (baseline \
              jemalloc: %.2f ms simulated; paper baseline ~%.0f s wall-clock)"
             ((get base).Runner.seconds *. 1e3)
             Paper_data.fig12_baseline_seconds))
    ~headers:[ "affinity distance (bytes)"; "time (sim ms)"; "vs baseline" ]
    (List.map
       (fun a ->
         let c =
           cell
             ~config:(with_profiler (fun p -> { p with Profiler.affinity_distance = a }))
             w Runner.Halo
         in
         [
           text (string_of_int a);
           entry [ c ] (fun get -> Printf.sprintf "%.3f" ((get c).Runner.seconds *. 1e3));
           speedup ~base c;
         ])
       (List.init 15 (fun k -> 1 lsl (k + 3)) (* 2^3 .. 2^17 *)))

(* §5.1's benchmark-selection rule: heap allocations per million
   instructions on the train inputs (the SPECrate subset was chosen at
   more than one per million). Measures no cell: it counts allocations on
   the train input. *)
let selection_criterion =
  let render _ =
    let t =
      Table.create
        ~title:
          "Section 5.1 — benchmark selection: heap allocations per million \
           instructions on the train input (threshold: > 1)"
        ~headers:[ "benchmark"; "allocations"; "instructions"; "allocs/Minstr" ]
        ()
    in
    List.iter
      (fun w ->
        let program = w.Workload.make Workload.Train in
        let alloc = Jemalloc_sim.create (Vmem.create ()) in
        let interp = Interp.create ~seed:1 ~program ~alloc () in
        ignore (Interp.run interp : int);
        let mallocs = (alloc.Alloc_iface.stats ()).Alloc_iface.mallocs in
        let instr = Interp.instructions interp in
        Table.add_row t
          [
            w.Workload.name;
            string_of_int mallocs;
            string_of_int instr;
            Printf.sprintf "%.1f" (1e6 *. float_of_int mallocs /. float_of_int instr);
          ])
      Workloads.all;
    t
  in
  { name = "sec51-selection"; cells = []; render }

let sec51_baseline =
  let l1 get c = string_of_int (get c).Runner.counters.Hierarchy.l1_misses in
  table "sec51-baseline"
    ~title:
      (text
         "Section 5.1 — baseline choice: L1D miss reduction of jemalloc over \
          ptmalloc2 (paper: up to 32%)")
    ~headers:[ "benchmark"; "ptmalloc L1 misses"; "jemalloc L1 misses"; "reduction" ]
    (List.map
       (fun w ->
         let pt = cell w Runner.Ptmalloc in
         [
           text w.Workload.name;
           entry [ pt ] (fun get -> l1 get pt);
           entry [ baseline w ] (fun get -> l1 get (baseline w));
           miss_red ~base:pt (baseline w);
         ])
       Workloads.all)

let overhead_control =
  table "sec52-overhead"
    ~title:
      (text
         "Section 5.2 control — instrumented binary without the specialised \
          allocator (overhead should be noise)")
    ~headers:[ "benchmark"; "speedup vs jemalloc" ]
    (List.map
       (fun w ->
         [ text w.Workload.name; speedup ~base:(baseline w) (cell w Runner.Halo_no_alloc) ])
       Workloads.all)

let ablation_grouping =
  let workloads = registry [ "health"; "povray"; "xalanc" ] in
  table "ablation-grouping"
    ~title:
      (text
         "Ablation — grouping algorithm swapped inside the HALO pipeline \
          (Section 4.2's comparison claim)")
    ~headers:
      ("clusterer"
      :: List.concat_map
           (fun w -> [ w.Workload.name ^ " miss red."; w.Workload.name ^ " groups" ])
           workloads)
    (List.map
       (fun (name, clusterer) ->
         text name
         :: List.concat_map
              (fun w ->
                let c = run_cell ~clusterer w Runner.Halo in
                [
                  miss_red ~base:(baseline w) c;
                  halo_detail c (fun h -> string_of_int h.Runner.groups);
                ])
              workloads)
       [
         ("halo (fig 6)", Fig6);
         ("modularity", Modularity);
         ("hcs", Hcs);
         ("threshold", Threshold);
       ])

let ablation_packing =
  table "ablation-packing"
    ~title:
      (text
         "Ablation — hot-data-streams set packing: stream-faithful weights vs \
          merged identical sets (repairs the weight scattering of Section 5.2)")
    ~headers:
      [ "benchmark"; "HDS miss red."; "HDS speedup"; "merged miss red.";
        "merged speedup" ]
    (List.map
       (fun w ->
         let base = baseline w in
         let hds = cell w Runner.Hds and merged = cell w Runner.Hds_merged_packing in
         [
           text w.Workload.name;
           miss_red ~base hds;
           speedup ~base hds;
           miss_red ~base merged;
           speedup ~base merged;
         ])
       (registry [ "health"; "ft"; "povray"; "roms" ]))

let ablation_identification =
  let workloads = registry [ "health"; "povray"; "xalanc"; "leela" ] in
  table "ablation-identification"
    ~title:
      (text
         "Ablation — identification granularity (same grouping; Section \
          2.2.3's schemes vs full-context selectors), L1D miss reduction")
    ~headers:("scheme" :: List.map (fun w -> w.Workload.name) workloads)
    (List.map
       (fun (label, kind) ->
         text label
         :: List.map (fun w -> miss_red ~base:(baseline w) (cell w kind)) workloads)
       [
         ("immediate site (MO/HDS)", Runner.Ident_window 1);
         ("xor-4 name (Calder)", Runner.Ident_window 4);
         ("full context (HALO)", Runner.Halo);
       ])

let ablation_backend =
  table "ablation-backend"
    ~title:
      (text
         "Extension — group-pool backend: bump-only (paper) vs sharded free \
          lists (Section 6 future work)")
    ~headers:[ "benchmark"; "backend"; "miss red."; "speedup"; "frag %"; "frag bytes" ]
    (List.concat_map
       (fun w ->
         List.map
           (fun (label, backend) ->
             let config =
               {
                 Pipeline.default_config with
                 Pipeline.allocator =
                   { Pipeline.default_config.Pipeline.allocator with Group_alloc.backend };
               }
             in
             let c = cell ~config w Runner.Halo in
             [
               text w.Workload.name;
               text label;
               miss_red ~base:(baseline w) c;
               speedup ~base:(baseline w) c;
               halo_detail c (fun h -> pct h.Runner.frag.Group_alloc.frag_pct);
               halo_detail c (fun h -> Table.fmt_bytes h.Runner.frag.Group_alloc.frag_bytes);
             ])
           [ ("bump", Group_alloc.Bump_only); ("sharded", Group_alloc.Sharded_free_lists) ])
       (registry [ "leela"; "omnetpp"; "health" ]))

let ablation_sampling =
  let workloads = registry [ "health"; "xalanc" ] in
  table "ablation-sampling"
    ~title:
      (text
         "Extension — profiling sample period vs plan quality (the paper \
          samples every access)")
    ~headers:("sample period" :: List.map (fun w -> w.Workload.name ^ " miss red.") workloads)
    (List.map
       (fun period ->
         let config = with_profiler (fun p -> { p with Profiler.sample_period = period }) in
         text (string_of_int period)
         :: List.map
              (fun w -> miss_red ~base:(baseline w) (cell ~config w Runner.Halo))
              workloads)
       [ 1; 10; 100; 1000 ])

(* The multi-tenant extension the paper's per-binary evaluation never
   exercises: when re-profiling beats running on a stale plan as traffic
   drifts. A row's net cycles (job cycles plus one cycle per profiled
   access) are compared with its drift's cadence-0 row, which plans once
   at tick 0 and never again. *)
let drift_study =
  let drifts = [ 0.0; 0.5; 1.0 ] and cadences = [ 0; 1; 2 ] in
  let render results =
    let t =
      Table.create ~title:"Plan-staleness drift study"
        ~headers:
          [ "drift"; "cadence"; "coverage"; "L1 miss"; "profiles"; "net vs stale";
            "verdict" ]
        ()
    in
    Table.set_aligns t Table.[ Right; Right; Right; Right; Right; Right; Left ];
    List.iteri
      (fun i drift ->
        if i > 0 then Table.add_rule t;
        let report cadence = mix_report results (drift_cell ~drift ~cadence) in
        let stale = (report 0).Traffic_mix.net_cycles in
        List.iter
          (fun cadence ->
            let r = report cadence in
            let vs_stale =
              if stale > 0.0 then
                Timing.speedup ~baseline:stale ~optimised:r.Traffic_mix.net_cycles
              else 0.0
            in
            Table.add_row t
              [
                Printf.sprintf "%g" drift;
                (if cadence = 0 then "never" else string_of_int cadence);
                Table.fmt_pct r.Traffic_mix.coverage;
                Table.fmt_pct r.Traffic_mix.miss_rate;
                string_of_int r.Traffic_mix.profile_runs;
                Table.fmt_pct vs_stale;
                (if cadence = 0 then "stale baseline"
                 else if vs_stale > 0.0 then "reprofile wins"
                 else "stale wins");
              ])
          cadences)
      drifts;
    t
  in
  {
    name = "drift";
    cells =
      List.concat_map
        (fun drift -> List.map (fun cadence -> drift_cell ~drift ~cadence) cadences)
        drifts;
    render;
  }

let all =
  [ fig13; fig14; fig15; tab1; hds_diagnostics; fig12; selection_criterion;
    sec51_baseline; overhead_control; ablation_grouping; ablation_packing;
    ablation_identification; ablation_backend; ablation_sampling; drift_study ]

let print ?jobs ?obs ?plan_source sections =
  let progress line = Printf.eprintf "  [cells] %s\n%!" line in
  let results =
    run_cells ?jobs ?obs ?plan_source ~progress
      (List.concat_map (fun s -> s.cells) sections)
  in
  List.iteri
    (fun i s ->
      if i > 0 then print_newline ();
      Table.print
        (Obs.span obs "section"
           ~attrs:[ ("section", Json.String s.name) ]
           (fun () -> s.render results)))
    sections
