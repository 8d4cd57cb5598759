type suite = {
  workloads : Workload.t list;
  seeds : int list;
  (* workload name -> kind -> one measurement per seed (same order as
     [seeds]) *)
  data : (string * (Runner.kind * Runner.measurement list) list) list;
}

let suite_kinds = [ Runner.Jemalloc; Runner.Halo; Runner.Hds; Runner.Random_pools 4 ]

let run_suite ?(seeds = [ 2 ]) ?workloads ?(progress = fun _ -> ()) ?jobs ?obs
    ?plan_source () =
  let workloads = Option.value workloads ~default:Workloads.all in
  (* One task per workload×kind×seed cell. Each cell builds its own Vmem,
     allocator and interpreter, so cells are independent; Par.map returns
     results in submission order, making the suite's contents identical at
     any worker count. *)
  let cells =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun kind -> List.map (fun seed -> (w, kind, seed)) seeds)
          suite_kinds)
      workloads
  in
  let progress =
    (* Workers report completion concurrently; serialise the callback. *)
    let mu = Mutex.create () in
    fun line -> Mutex.protect mu (fun () -> progress line)
  in
  let measurements =
    Par.map_obs ?obs ~name:"suite" ?jobs
      (fun wobs (w, kind, seed) ->
        let m = Runner.run ?obs:wobs ~seed ?plan_source w kind in
        progress
          (Printf.sprintf "%s/%s (seed %d) done" w.Workload.name
             (Runner.kind_name kind) seed);
        m)
      cells
  in
  (* Reassemble in the cell-generation order: measurements.(i) is cell i. *)
  let arr = Array.of_list measurements in
  let idx = ref 0 in
  let next () =
    let m = arr.(!idx) in
    incr idx;
    m
  in
  let data =
    List.map
      (fun w ->
        let per_kind =
          List.map (fun kind -> (kind, List.map (fun _ -> next ()) seeds)) suite_kinds
        in
        (w.Workload.name, per_kind))
      workloads
  in
  { workloads; seeds; data }

let runs_of suite bench kind =
  match List.assoc_opt bench suite.data with
  | None -> []
  | Some per_kind -> Option.value (List.assoc_opt kind per_kind) ~default:[]

(* Median across seeds of a per-seed metric derived from (baseline, run)
   pairs. Dynamically composed suites can lack a kind entirely or carry
   per-kind seed lists of different lengths; zip only the common prefix
   (List.map2 would raise) so metric_cell degrades to "-" instead of
   crashing the whole table. *)
let metric_values suite bench kind metric =
  let baselines = runs_of suite bench Runner.Jemalloc in
  let runs = runs_of suite bench kind in
  let rec zip acc bs ms =
    match (bs, ms) with
    | b :: bs, m :: ms -> zip (metric ~baseline:b m :: acc) bs ms
    | _, _ -> List.rev acc
  in
  zip [] baselines runs |> Array.of_list

(* §5.1 measurement style: median with 25th/75th-percentile error bars when
   several input seeds were run. *)
let metric_cell suite bench kind metric =
  let values = metric_values suite bench kind metric in
  match Array.length values with
  | 0 -> "-"
  | 1 -> Table.fmt_pct values.(0)
  | _ ->
      let s = Stats.summarize values in
      Printf.sprintf "%s [%s, %s]" (Table.fmt_pct s.Stats.median)
        (Table.fmt_pct s.Stats.p25) (Table.fmt_pct s.Stats.p75)

let bench_names suite = List.map (fun w -> w.Workload.name) suite.workloads

let paper_fig13_14 bench =
  List.find_opt (fun (p : Paper_data.fig13_14) -> p.bench = bench)
    Paper_data.fig13_14

let fig13 suite =
  let t =
    Table.create
      ~title:
        "Figure 13 — L1 D-cache miss reduction vs jemalloc (paper bars are \
         approximate reads)"
      ~headers:
        [ "benchmark"; "HDS (paper)"; "HDS (measured)"; "HALO (paper)";
          "HALO (measured)" ]
      ()
  in
  List.iter
    (fun bench ->
      let p = paper_fig13_14 bench in
      Table.add_row t
        [
          bench;
          (match p with Some p -> Table.fmt_pct p.hds_miss | None -> "-");
          metric_cell suite bench Runner.Hds Runner.miss_reduction_vs;
          (match p with Some p -> Table.fmt_pct p.halo_miss | None -> "-");
          metric_cell suite bench Runner.Halo Runner.miss_reduction_vs;
        ])
    (bench_names suite);
  t

let fig14 suite =
  let t =
    Table.create
      ~title:
        "Figure 14 — execution-time speedup vs jemalloc (paper bars are \
         approximate reads)"
      ~headers:
        [ "benchmark"; "HDS (paper)"; "HDS (measured)"; "HALO (paper)";
          "HALO (measured)" ]
      ()
  in
  List.iter
    (fun bench ->
      let p = paper_fig13_14 bench in
      Table.add_row t
        [
          bench;
          (match p with Some p -> Table.fmt_pct p.hds_speed | None -> "-");
          metric_cell suite bench Runner.Hds Runner.speedup_vs;
          (match p with Some p -> Table.fmt_pct p.halo_speed | None -> "-");
          metric_cell suite bench Runner.Halo Runner.speedup_vs;
        ])
    (bench_names suite);
  t

let fig15 suite =
  let t =
    Table.create
      ~title:
        "Figure 15 — speedup under a random 4-pool allocator (placement \
         sensitivity probe)"
      ~headers:[ "benchmark"; "paper"; "measured" ]
      ()
  in
  List.iter
    (fun bench ->
      let paper =
        Option.map snd
          (List.find_opt (fun (b, _) -> b = bench) Paper_data.fig15)
      in
      Table.add_row t
        [
          bench;
          (match paper with Some p -> Table.fmt_pct p | None -> "-");
          metric_cell suite bench (Runner.Random_pools 4) Runner.speedup_vs;
        ])
    (bench_names suite);
  t

let tab1 suite =
  let t =
    Table.create
      ~title:
        "Table 1 — fragmentation of grouped objects at peak memory usage \
         (HALO's specialised allocator)"
      ~headers:
        [ "benchmark"; "frag % (paper)"; "frag % (measured)";
          "frag bytes (paper)"; "frag bytes (measured)" ]
      ()
  in
  List.iter
    (fun (bench, ppct, pbytes) ->
      match runs_of suite bench Runner.Halo with
      | [] -> ()
      | m :: _ -> (
          match m.Runner.halo with
          | None -> ()
          | Some h ->
              Table.add_row t
                [
                  bench;
                  Printf.sprintf "%.2f%%" (100.0 *. ppct);
                  Printf.sprintf "%.2f%%" (100.0 *. h.Runner.frag.Group_alloc.frag_pct);
                  Table.fmt_bytes pbytes;
                  Table.fmt_bytes h.Runner.frag.Group_alloc.frag_bytes;
                ]))
    (List.filter
       (fun (bench, _, _) ->
         match List.find_opt (fun w -> w.Workload.name = bench) suite.workloads with
         | Some w -> w.Workload.in_frag_table
         | None -> false)
       Paper_data.table1);
  t

let fig12 ?distances () =
  let distances =
    Option.value distances
      ~default:(List.init 15 (fun k -> 1 lsl (k + 3)) (* 2^3 .. 2^17 *))
  in
  let w =
    match Workloads.find "omnetpp" with
    | Some w -> w
    | None -> invalid_arg "Figures.fig12: omnetpp workload missing"
  in
  let baseline = Runner.run w Runner.Jemalloc in
  let t =
    Table.create
      ~title:
        (Printf.sprintf
           "Figure 12 — omnetpp simulated time vs affinity distance (baseline \
            jemalloc: %.2f ms simulated; paper baseline ~%.0f s wall-clock)"
           (baseline.Runner.seconds *. 1e3)
           Paper_data.fig12_baseline_seconds)
      ~headers:[ "affinity distance (bytes)"; "time (sim ms)"; "vs baseline" ]
      ()
  in
  List.iter
    (fun a ->
      let config =
        {
          Pipeline.default_config with
          Pipeline.profiler =
            { Profiler.default_config with Profiler.affinity_distance = a };
        }
      in
      let m = Runner.run ~pipeline_config:config w Runner.Halo in
      Table.add_row t
        [
          string_of_int a;
          Printf.sprintf "%.3f" (m.Runner.seconds *. 1e3);
          Table.fmt_pct (Runner.speedup_vs ~baseline m);
        ])
    distances;
  t

let selection_criterion ?workloads () =
  let workloads = Option.value workloads ~default:Workloads.all in
  let t =
    Table.create
      ~title:
        "Section 5.1 — benchmark selection: heap allocations per million          instructions on the train input (threshold: > 1)"
      ~headers:[ "benchmark"; "allocations"; "instructions"; "allocs/Minstr" ]
      ()
  in
  List.iter
    (fun w ->
      let program = w.Workload.make Workload.Train in
      let vmem = Vmem.create () in
      let alloc = Jemalloc_sim.create vmem in
      let interp = Interp.create ~seed:1 ~program ~alloc () in
      ignore (Interp.run interp : int);
      let stats = alloc.Alloc_iface.stats () in
      let instr = Interp.instructions interp in
      Table.add_row t
        [
          w.Workload.name;
          string_of_int stats.Alloc_iface.mallocs;
          string_of_int instr;
          Printf.sprintf "%.1f"
            (1e6 *. float_of_int stats.Alloc_iface.mallocs /. float_of_int instr);
        ])
    workloads;
  t

let sec51_baseline ?workloads () =
  let workloads = Option.value workloads ~default:Workloads.all in
  let t =
    Table.create
      ~title:
        "Section 5.1 — baseline choice: L1D miss reduction of jemalloc over \
         ptmalloc2 (paper: up to 32%)"
      ~headers:[ "benchmark"; "ptmalloc L1 misses"; "jemalloc L1 misses"; "reduction" ]
      ()
  in
  List.iter
    (fun w ->
      let je = Runner.run w Runner.Jemalloc in
      let pt = Runner.run w Runner.Ptmalloc in
      Table.add_row t
        [
          w.Workload.name;
          string_of_int pt.Runner.counters.Hierarchy.l1_misses;
          string_of_int je.Runner.counters.Hierarchy.l1_misses;
          Table.fmt_pct
            (Timing.miss_reduction
               ~baseline:pt.Runner.counters.Hierarchy.l1_misses
               ~optimised:je.Runner.counters.Hierarchy.l1_misses);
        ])
    workloads;
  t

let overhead_control ?workloads () =
  let workloads = Option.value workloads ~default:Workloads.all in
  let t =
    Table.create
      ~title:
        "Section 5.2 control — instrumented binary without the specialised \
         allocator (overhead should be noise)"
      ~headers:[ "benchmark"; "speedup vs jemalloc" ]
      ()
  in
  List.iter
    (fun w ->
      let base = Runner.run w Runner.Jemalloc in
      let m = Runner.run w Runner.Halo_no_alloc in
      Table.add_row t [ w.Workload.name; Table.fmt_pct (Runner.speedup_vs ~baseline:base m) ])
    workloads;
  t

let hds_diagnostics suite =
  let t =
    Table.create
      ~title:
        "Section 5.2 — model sizes: hot-data-stream candidates vs affinity \
         graph nodes (paper's roms: >150,000 streams vs 31 nodes)"
      ~headers:
        [ "benchmark"; "candidate streams"; "selected"; "coverage";
          "HDS pools"; "HALO graph nodes"; "HALO groups" ]
      ()
  in
  List.iter
    (fun bench ->
      let hds_run = match runs_of suite bench Runner.Hds with m :: _ -> Some m | [] -> None in
      let halo_run = match runs_of suite bench Runner.Halo with m :: _ -> Some m | [] -> None in
      match (hds_run, halo_run) with
      | Some hm, Some am -> (
          match (hm.Runner.hds, am.Runner.halo) with
          | Some h, Some a ->
              Table.add_row t
                [
                  bench;
                  string_of_int h.Runner.stream_count;
                  string_of_int h.Runner.selected_streams;
                  Printf.sprintf "%.0f%%" (100.0 *. h.Runner.hds_coverage);
                  string_of_int h.Runner.pools;
                  string_of_int a.Runner.graph_nodes;
                  string_of_int a.Runner.groups;
                ]
          | _ -> ())
      | _ -> ())
    (bench_names suite);
  t

let ablation_grouping ?workloads () =
  let workloads =
    Option.value workloads
      ~default:
        (List.filter
           (fun w -> List.mem w.Workload.name [ "health"; "povray"; "xalanc" ])
           Workloads.all)
  in
  let clusterers =
    [
      ("halo (fig 6)", None);
      ("modularity", Some (fun g p -> Clustering.as_grouping g p (Clustering.modularity g)));
      ("hcs", Some (fun g p -> Clustering.as_grouping g p (Clustering.hcs g)));
      ( "threshold",
        Some
          (fun g (p : Grouping.params) ->
            Clustering.as_grouping g p
              (Clustering.threshold_components
                 ~min_weight:p.Grouping.min_edge_weight g)) );
    ]
  in
  let t =
    Table.create
      ~title:
        "Ablation — grouping algorithm swapped inside the HALO pipeline          (Section 4.2's comparison claim)"
      ~headers:
        ([ "clusterer" ]
        @ List.concat_map
            (fun w -> [ w.Workload.name ^ " miss red."; w.Workload.name ^ " groups" ])
            workloads)
      ()
  in
  let baselines = List.map (fun w -> Runner.run w Runner.Jemalloc) workloads in
  List.iter
    (fun (name, group_fn) ->
      let cells =
        List.concat
          (List.map2
             (fun w base ->
               let m = Runner.run ?group_fn w Runner.Halo in
               let groups =
                 match m.Runner.halo with
                 | Some h -> string_of_int h.Runner.groups
                 | None -> "-"
               in
               [ Table.fmt_pct (Runner.miss_reduction_vs ~baseline:base m); groups ])
             workloads baselines)
      in
      Table.add_row t (name :: cells))
    clusterers;
  t

let ablation_packing ?workloads () =
  let workloads =
    Option.value workloads
      ~default:
        (List.filter
           (fun w -> List.mem w.Workload.name [ "health"; "ft"; "povray"; "roms" ])
           Workloads.all)
  in
  let t =
    Table.create
      ~title:
        "Ablation — hot-data-streams set packing: stream-faithful weights vs \
         merged identical sets (repairs the weight scattering of Section 5.2)"
      ~headers:
        [ "benchmark"; "HDS miss red."; "HDS speedup"; "merged miss red.";
          "merged speedup" ]
      ()
  in
  List.iter
    (fun w ->
      let base = Runner.run w Runner.Jemalloc in
      let hds = Runner.run w Runner.Hds in
      let merged = Runner.run w Runner.Hds_merged_packing in
      Table.add_row t
        [
          w.Workload.name;
          Table.fmt_pct (Runner.miss_reduction_vs ~baseline:base hds);
          Table.fmt_pct (Runner.speedup_vs ~baseline:base hds);
          Table.fmt_pct (Runner.miss_reduction_vs ~baseline:base merged);
          Table.fmt_pct (Runner.speedup_vs ~baseline:base merged);
        ])
    workloads;
  t

let ablation_identification ?workloads () =
  let workloads =
    Option.value workloads
      ~default:
        (List.filter
           (fun w ->
             List.mem w.Workload.name [ "health"; "povray"; "xalanc"; "leela" ])
           Workloads.all)
  in
  let t =
    Table.create
      ~title:
        "Ablation — identification granularity (same grouping; Section          2.2.3's schemes vs full-context selectors), L1D miss reduction"
      ~headers:
        ([ "scheme" ] @ List.map (fun w -> w.Workload.name) workloads)
      ()
  in
  let baselines = List.map (fun w -> Runner.run w Runner.Jemalloc) workloads in
  List.iter
    (fun (label, kind) ->
      let cells =
        List.map2
          (fun w base ->
            let m = Runner.run w kind in
            Table.fmt_pct (Runner.miss_reduction_vs ~baseline:base m))
          workloads baselines
      in
      Table.add_row t (label :: cells))
    [
      ("immediate site (MO/HDS)", Runner.Ident_window 1);
      ("xor-4 name (Calder)", Runner.Ident_window 4);
      ("full context (HALO)", Runner.Halo);
    ];
  t

let ablation_backend ?workloads () =
  let workloads =
    Option.value workloads
      ~default:
        (List.filter
           (fun w -> List.mem w.Workload.name [ "leela"; "omnetpp"; "health" ])
           Workloads.all)
  in
  let t =
    Table.create
      ~title:
        "Extension — group-pool backend: bump-only (paper) vs sharded free          lists (Section 6 future work)"
      ~headers:
        [ "benchmark"; "backend"; "miss red."; "speedup"; "frag %"; "frag bytes" ]
      ()
  in
  List.iter
    (fun w ->
      let base = Runner.run w Runner.Jemalloc in
      List.iter
        (fun (label, backend) ->
          let cfg =
            { Pipeline.default_config with
              Pipeline.allocator =
                { Pipeline.default_config.Pipeline.allocator with
                  Group_alloc.backend } }
          in
          let m = Runner.run ~pipeline_config:cfg w Runner.Halo in
          match m.Runner.halo with
          | Some h ->
              Table.add_row t
                [
                  w.Workload.name;
                  label;
                  Table.fmt_pct (Runner.miss_reduction_vs ~baseline:base m);
                  Table.fmt_pct (Runner.speedup_vs ~baseline:base m);
                  Printf.sprintf "%.2f%%"
                    (100.0 *. h.Runner.frag.Group_alloc.frag_pct);
                  Table.fmt_bytes h.Runner.frag.Group_alloc.frag_bytes;
                ]
          | None -> ())
        [ ("bump", Group_alloc.Bump_only);
          ("sharded", Group_alloc.Sharded_free_lists) ])
    workloads;
  t

let ablation_sampling ?workloads ?(periods = [ 1; 10; 100; 1000 ]) () =
  let workloads =
    Option.value workloads
      ~default:
        (List.filter
           (fun w -> List.mem w.Workload.name [ "health"; "xalanc" ])
           Workloads.all)
  in
  let t =
    Table.create
      ~title:
        "Extension — profiling sample period vs plan quality (the paper          samples every access)"
      ~headers:
        ([ "sample period" ]
        @ List.map (fun w -> w.Workload.name ^ " miss red.") workloads)
      ()
  in
  let baselines = List.map (fun w -> Runner.run w Runner.Jemalloc) workloads in
  List.iter
    (fun period ->
      let cfg =
        { Pipeline.default_config with
          Pipeline.profiler =
            { Profiler.default_config with Profiler.sample_period = period } }
      in
      let cells =
        List.map2
          (fun w base ->
            let m = Runner.run ~pipeline_config:cfg w Runner.Halo in
            Table.fmt_pct (Runner.miss_reduction_vs ~baseline:base m))
          workloads baselines
      in
      Table.add_row t (string_of_int period :: cells))
    periods;
  t

(* The multi-tenant extension the paper's per-binary evaluation never
   exercises: the plan-staleness drift study over the shared drifting
   traffic shape, scaled down (3 drifts x 3 cadences, 4 epochs) so the
   full figure suite stays fast. [halo traffic study] runs the
   full-size sweep. *)
let drift_study ?jobs () =
  let params =
    {
      Traffic_study.default_params with
      Traffic_study.drifts = [ 0.0; 0.5; 1.0 ];
      cadences = [ 0; 1; 2 ];
      phases = 4;
      rate = 3.0;
    }
  in
  Traffic_study.table (Traffic_study.run ?jobs params)

let print_all ?jobs ?obs ?plan_source () =
  let progress line = Printf.eprintf "  [suite] %s\n%!" line in
  print_endline "Running the full measurement suite (11 workloads x 4 configs)...";
  let suite = run_suite ~progress ?jobs ?obs ?plan_source () in
  Table.print (fig13 suite);
  print_newline ();
  Table.print (fig14 suite);
  print_newline ();
  Table.print (fig15 suite);
  print_newline ();
  Table.print (tab1 suite);
  print_newline ();
  Table.print (hds_diagnostics suite);
  print_newline ();
  print_endline "Running the Figure 12 affinity-distance sweep (omnetpp)...";
  Table.print (fig12 ());
  print_newline ();
  print_endline "Running the Section 5.1 selection criterion...";
  Table.print (selection_criterion ());
  print_newline ();
  print_endline "Running the Section 5.1 baseline comparison...";
  Table.print (sec51_baseline ());
  print_newline ();
  print_endline "Running the Section 5.2 instrumentation-overhead control...";
  Table.print (overhead_control ());
  print_newline ();
  print_endline "Running the grouping-algorithm ablation...";
  Table.print (ablation_grouping ());
  print_newline ();
  print_endline "Running the set-packing ablation...";
  Table.print (ablation_packing ());
  print_newline ();
  print_endline "Running the identification-granularity ablation...";
  Table.print (ablation_identification ());
  print_newline ();
  print_endline "Running the allocator-backend extension...";
  Table.print (ablation_backend ());
  print_newline ();
  print_endline "Running the profiling-sampling extension...";
  Table.print (ablation_sampling ());
  print_newline ();
  print_endline "Running the plan-staleness drift study...";
  Table.print (drift_study ?jobs ())
