(* The `halo` command-line tool.

   Mirrors the artefact appendix's workflow (A.5): `halo run` measures a
   workload under the default (`-c jemalloc`) or an optimised
   configuration, `halo plot`'s role is played by `halo figures` (text
   tables rather than PDFs), and the A.8 per-benchmark flags
   (--chunk-size, --max-spare-chunks, --max-groups) are accepted by
   `halo run`. `halo plan` additionally exposes the optimisation plan
   itself — groups, selectors, monitored sites, and the Figure 9 affinity
   graph as graphviz dot.

   Observability: every `--trace-out FILE` streams the command's telemetry
   (pipeline-stage spans, allocator/cache metric series, metric
   summaries) as Chrome trace-event JSON, which Perfetto loads and
   `halo telemetry report|diff` reads back. *)

open Cmdliner

let workload_conv =
  let parse s =
    match Workloads.lookup s with
    | Ok w -> Ok w
    | Error e -> Error (`Msg (Workloads.lookup_error_to_string e))
  in
  let print ppf w = Format.pp_print_string ppf w.Workload.name in
  Arg.conv (parse, print)

let workload_arg =
  Arg.(
    required
    & opt (some workload_conv) None
    & info [ "w"; "workload" ] ~docv:"NAME" ~doc:"Workload to operate on.")

let seed_arg =
  Arg.(value & opt int 2 & info [ "seed" ] ~docv:"N" ~doc:"Measurement input seed.")

let kind_conv =
  let table =
    [
      ("jemalloc", Runner.Jemalloc);
      ("ptmalloc", Runner.Ptmalloc);
      ("halo", Runner.Halo);
      ("noalloc", Runner.Halo_no_alloc);
      ("hds", Runner.Hds);
      ("hds-merged", Runner.Hds_merged_packing);
      ("random", Runner.Random_pools 4);
    ]
  in
  let parse s =
    match List.assoc_opt s table with
    | Some k -> Ok k
    | None ->
        Error
          (`Msg
             (Printf.sprintf "unknown config %S (one of: %s)" s
                (String.concat ", " (List.map fst table))))
  in
  let print ppf k = Format.pp_print_string ppf (Runner.kind_name k) in
  Arg.conv (parse, print)

let kind_arg =
  Arg.(
    value
    & opt kind_conv Runner.Halo
    & info [ "c"; "config"; "kind" ] ~docv:"CONFIG"
        ~doc:
          "Allocator configuration: jemalloc, ptmalloc, halo, noalloc, hds, \
           hds-merged, or random.")

(* A number the library rejects is a usage error naming its flag
   (exit 124), not an uncaught Invalid_argument. *)
let checked base check =
  let parse s =
    Result.bind (Arg.conv_parser base s) (fun v ->
        Option.fold (check v) ~none:(Ok v) ~some:(fun m -> Error (`Msg m)))
  in
  Arg.conv (parse, Arg.conv_printer base)

let positive_int =
  checked Arg.int (fun n -> if n > 0 then None else Some "must be positive")

let non_negative_int =
  checked Arg.int (fun n -> if n >= 0 then None else Some "must not be negative")

let positive_float =
  checked Arg.float (fun w ->
      if Float.is_finite w && w > 0.0 then None
      else Some "must be positive and finite")

let non_negative_float =
  checked Arg.float (fun x ->
      if Float.is_finite x && x >= 0.0 then None
      else Some "must be finite and not negative")

let chunk_size_arg =
  let chunk_size =
    checked Arg.int (fun n ->
        Group_alloc.config_error
          { Group_alloc.default_config with chunk_size = n })
  in
  Arg.(
    value
    & opt (some chunk_size) None
    & info [ "chunk-size" ] ~docv:"BYTES" ~doc:"Group-chunk size (A.8 flag).")

let spare_arg =
  Arg.(
    value
    & opt (some non_negative_int) None
    & info [ "max-spare-chunks" ] ~docv:"N"
        ~doc:"Spare chunks kept resident when purging (A.8 flag).")

let max_groups_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "max-groups" ] ~docv:"N" ~doc:"Cap on allocation groups (A.8 flag).")

let affinity_arg =
  Arg.(
    value
    & opt (some positive_int) None
    & info [ "affinity-distance" ] ~docv:"BYTES"
        ~doc:"Affinity distance A for profiling (default 128).")

let pipeline_config ~chunk_size ~spare ~max_groups ~affinity =
  let c = Pipeline.default_config in
  let allocator =
    {
      c.Pipeline.allocator with
      Group_alloc.chunk_size =
        Option.value chunk_size ~default:c.Pipeline.allocator.Group_alloc.chunk_size;
      spare_policy =
        (match spare with
        | Some n -> Group_alloc.Keep_spare n
        | None -> c.Pipeline.allocator.Group_alloc.spare_policy);
    }
  in
  let grouping =
    match max_groups with
    | Some n -> { c.Pipeline.grouping with Grouping.max_groups = Some n }
    | None -> c.Pipeline.grouping
  in
  let profiler =
    match affinity with
    | Some a -> { c.Pipeline.profiler with Profiler.affinity_distance = a }
    | None -> c.Pipeline.profiler
  in
  { c with Pipeline.allocator; grouping; profiler }

(* The one measurement formatter, shared by `run` and `profile apply`:
   a two-column Util.Table rather than ad-hoc printf. *)
let measurement_table ?baseline (m : Runner.measurement) =
  let t =
    Table.create
      ~title:(Printf.sprintf "%s / %s" m.Runner.workload (Runner.kind_name m.Runner.kind))
      ~headers:[ "metric"; "value" ] ()
  in
  Table.set_aligns t [ Table.Left; Table.Right ];
  let row k v = Table.add_row t [ k; v ] in
  row "workload" m.Runner.workload;
  row "configuration" (Runner.kind_name m.Runner.kind);
  row "instructions" (string_of_int m.Runner.instructions);
  row "accesses" (string_of_int m.Runner.counters.Hierarchy.accesses);
  row "L1D misses" (string_of_int m.Runner.counters.Hierarchy.l1_misses);
  row "L2 misses" (string_of_int m.Runner.counters.Hierarchy.l2_misses);
  row "L3 misses" (string_of_int m.Runner.counters.Hierarchy.l3_misses);
  row "DTLB misses" (string_of_int m.Runner.counters.Hierarchy.tlb_misses);
  row "cycles" (Printf.sprintf "%.0f" m.Runner.cycles);
  row "sim time" (Printf.sprintf "%.3f ms" (m.Runner.seconds *. 1e3));
  (match baseline with
  | Some b when b != m ->
      Table.add_rule t;
      row "vs jemalloc misses" (Table.fmt_pct (Runner.miss_reduction_vs ~baseline:b m));
      row "vs jemalloc time" (Table.fmt_pct (Runner.speedup_vs ~baseline:b m))
  | _ -> ());
  (match m.Runner.halo with
  | Some h ->
      Table.add_rule t;
      row "halo groups" (string_of_int h.Runner.groups);
      row "monitored sites" (string_of_int h.Runner.monitored_sites);
      row "graph nodes" (string_of_int h.Runner.graph_nodes);
      row "grouped mallocs" (string_of_int h.Runner.grouped_mallocs);
      row "chunks carved" (string_of_int h.Runner.chunks_carved);
      row "chunk reuses" (string_of_int h.Runner.chunk_reuses);
      row "fragmentation"
        (Printf.sprintf "%.2f%% (%s at peak)"
           (100.0 *. h.Runner.frag.Group_alloc.frag_pct)
           (Table.fmt_bytes h.Runner.frag.Group_alloc.frag_bytes))
  | None -> ());
  (match m.Runner.hds with
  | Some h ->
      Table.add_rule t;
      row "hds pools" (string_of_int h.Runner.pools);
      row "candidate streams" (string_of_int h.Runner.stream_count);
      row "selected streams" (string_of_int h.Runner.selected_streams);
      row "stream coverage" (Printf.sprintf "%.0f%%" (100.0 *. h.Runner.hds_coverage));
      row "trace length" (string_of_int h.Runner.trace_length)
  | None -> ());
  t

let print_measurement ?baseline m = Table.print (measurement_table ?baseline m)

(* Every --trace-out: [f] gets a context streaming its trace to the file,
   or [None] without the flag, so an untraced command records nothing.
   The notice goes to stderr because serve's stdout is its response
   stream. *)
let with_trace trace_out f =
  match trace_out with
  | None -> f None
  | Some path ->
      let oc =
        try open_out path
        with Sys_error msg ->
          Printf.eprintf "halo: cannot open trace file: %s\n" msg;
          exit 1
      in
      let obs = Obs.create ~trace:(Obs.Channel oc) () in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          let r = f (Some obs) in
          Obs.finish obs;
          Printf.eprintf "trace written to %s\n" path;
          r)

(* Suites and fuzz campaigns fan out over a Par domain pool; measurement
   tables and oracle verdicts are bit-identical at any worker count. *)
let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker domains for the fan-out (default: the runtime's \
           recommended domain count). Output is bit-identical at any \
           $(docv).")

let effective_jobs = function
  | Some n -> max 1 n
  | None -> Par.default_jobs ()

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Stream the command's telemetry (spans, metric series and \
           summaries) to $(docv) as Chrome trace-event JSON, one track per \
           worker domain; open it in Perfetto or read it with $(b,telemetry \
           report).")

(* ---------------- persistent profile/plan store ---------------- *)

let or_die = function
  | Ok v -> v
  | Error e ->
      Printf.eprintf "halo: %s\n" (Store.error_to_string e);
      exit 1

let fmt_time t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

let plan_cache_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "plan-cache" ] ~docv:"DIR"
        ~doc:
          "Content-addressed plan cache: HALO plans are stored under \
           $(docv) keyed by program and config digest, and warmed entries \
           answer repeat runs without re-profiling.")

let plan_cache_of = Option.map (fun dir -> Plan_cache.create dir)

let report_cache = function
  | None -> ()
  | Some cache ->
      let s = Plan_cache.stats cache in
      Printf.printf
        "plan cache (%s): %d hits, %d misses, %d stores (hit rate %.0f%%)\n"
        (Plan_cache.dir cache) s.Plan_cache.hits s.Plan_cache.misses
        s.Plan_cache.stores
        (100.0 *. Plan_cache.hit_rate s)

let profile_out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Artifact file to write.")

let profile_record_cmd =
  let run w prof_seed affinity out =
    let config =
      {
        Profiler.default_config with
        Profiler.seed = prof_seed;
        affinity_distance =
          Option.value affinity
            ~default:Profiler.default_config.Profiler.affinity_distance;
      }
    in
    let program = w.Workload.make Workload.Test in
    let result = Profiler.profile ~config program in
    or_die
      (Store.write_profile ~path:out
         ~program_digest:(Ir_digest.program program)
         ~config ~producer:"halo_cli"
         ~extra_meta:[ ("workload", Json.String w.Workload.name) ]
         result);
    Printf.printf
      "recorded %s (seed %d) to %s: %d contexts, %d tracked allocs, %d \
       macro accesses, %d graph nodes\n"
      w.Workload.name config.Profiler.seed out
      (Context.count result.Profiler.contexts)
      result.Profiler.tracked_allocs result.Profiler.total_accesses
      (List.length (Affinity_graph.nodes result.Profiler.graph))
  in
  let prof_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Profiling input seed (default 1).")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Profile a workload's test-scale program and persist the result \
          as a versioned artifact (the pipeline's record phase).")
    Term.(
      const run $ workload_arg $ prof_seed_arg $ affinity_arg $ profile_out_arg)

let profile_files_arg =
  Arg.(
    non_empty & pos_all file []
    & info [] ~docv:"ARTIFACT" ~doc:"Recorded profile artifacts.")

let profile_merge_cmd =
  let run files weights out =
    let artifacts = List.map (fun f -> or_die (Store.read_profile f)) files in
    let weights = Option.value weights ~default:(List.map (fun _ -> 1.0) files) in
    let config, merged =
      or_die (Store.merge_profiles (List.combine artifacts weights))
    in
    let first = List.hd artifacts in
    or_die
      (Store.write_profile ~path:out
         ~program_digest:first.Store.header.Store.program_digest ~config
         ~producer:"halo_cli"
         ~extra_meta:
           [
             ("merged_inputs", Json.Int (List.length artifacts));
             ("weights", Json.List (List.map (fun w -> Json.Float w) weights));
           ]
         merged);
    Printf.printf
      "merged %d runs into %s: %d contexts, %d macro accesses, %d graph \
       nodes\n"
      (List.length artifacts) out
      (Context.count merged.Profiler.contexts)
      merged.Profiler.total_accesses
      (List.length (Affinity_graph.nodes merged.Profiler.graph))
  in
  let weights_arg =
    Arg.(
      value
      & opt (some (list positive_float)) None
      & info [ "weights" ] ~docv:"W1,W2,..."
          ~doc:
            "Per-run weights, in artifact order (default: 1 each). Counts \
             are scaled before the merged noise filter runs.")
  in
  (* One weight per artifact, checked before any artifact is read. *)
  let weights_arg =
    let match_files files = function
      | Some ws when List.length ws <> List.length files ->
          `Error
            ( true,
              Printf.sprintf "--weights: %d weights for %d artifacts" (List.length ws)
                (List.length files) )
      | ws -> `Ok ws
    in
    Term.(ret (const match_files $ profile_files_arg $ weights_arg))
  in
  Cmd.v
    (Cmd.info "merge"
       ~doc:
         "Combine several recorded runs of one program/config pair into a \
          single weighted profile artifact. The runs are folded in one at \
          a time, in the order given: each run's counts are scaled by its \
          weight and added, then the noise filter runs once over the sum.")
    Term.(const run $ profile_files_arg $ weights_arg $ profile_out_arg)

(* `profile inspect --stats DIR`: the plan cache's cumulative ledger,
   read from the directory alone — no daemon, no profiling. *)
let inspect_cache_dir dir =
  let cache = Plan_cache.create dir in
  let s = Plan_cache.lifetime_stats cache in
  let entries = Plan_cache.entry_names cache in
  let t =
    Table.create
      ~title:(Printf.sprintf "plan cache %s" dir)
      ~headers:[ "field"; "value" ] ()
  in
  Table.set_aligns t [ Table.Left; Table.Right ];
  let row k v = Table.add_row t [ k; v ] in
  row "entries" (string_of_int (List.length entries));
  row "hits" (string_of_int s.Plan_cache.hits);
  row "misses" (string_of_int s.Plan_cache.misses);
  row "stores" (string_of_int s.Plan_cache.stores);
  row "evictions" (string_of_int s.Plan_cache.evictions);
  row "hit rate" (Table.fmt_pct (Plan_cache.hit_rate s));
  if entries <> [] then begin
    Table.add_rule t;
    List.iter
      (fun name ->
        let path = Filename.concat dir name in
        let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
        row name (Table.fmt_bytes size))
      entries
  end;
  Table.print t

let profile_inspect_cmd =
  let run file top stats =
    if stats then inspect_cache_dir file
    else begin
    let header = or_die (Store.read_header file) in
    let result =
      match header.Store.kind with
      | "profile" -> (or_die (Store.read_profile file)).Store.result
      | "plan" -> (snd (or_die (Store.read_plan file))).Pipeline.profile
      | k ->
          Printf.eprintf "halo: unknown artifact kind %S\n" k;
          exit 1
    in
    let t =
      Table.create ~title:(Filename.basename file)
        ~headers:[ "field"; "value" ] ()
    in
    Table.set_aligns t [ Table.Left; Table.Left ];
    let row k v = Table.add_row t [ k; v ] in
    row "format"
      (Printf.sprintf "%s v%d" Store.format_name header.Store.version);
    row "kind" header.Store.kind;
    row "program digest" header.Store.program_digest;
    row "config digest" header.Store.config_digest;
    row "created" (fmt_time header.Store.created);
    row "producer" header.Store.producer;
    List.iter
      (fun (k, v) -> row k (Json.to_string ~pretty:false v))
      header.Store.meta;
    Table.add_rule t;
    row "contexts" (string_of_int (Context.count result.Profiler.contexts));
    row "tracked allocs" (string_of_int result.Profiler.tracked_allocs);
    row "macro accesses" (string_of_int result.Profiler.total_accesses);
    let g = result.Profiler.graph in
    row "graph nodes" (string_of_int (List.length (Affinity_graph.nodes g)));
    row "graph edges" (string_of_int (List.length (Affinity_graph.edges g)));
    Table.print t;
    print_newline ();
    let edges =
      List.sort
        (fun (_, _, a) (_, _, b) -> compare b a)
        (Affinity_graph.edges g)
    in
    let e =
      Table.create
        ~title:(Printf.sprintf "top %d affinity edges" top)
        ~headers:[ "weight"; "ctx"; "accesses"; "ctx"; "accesses"; "sites" ]
        ()
    in
    Table.set_aligns e
      [ Table.Right; Table.Right; Table.Right; Table.Right; Table.Right; Table.Left ];
    let chain id =
      Context.sites result.Profiler.contexts id
      |> Array.to_list
      |> List.map (Printf.sprintf "0x%x")
      |> String.concat ">"
    in
    List.iteri
      (fun i (x, y, w) ->
        if i < top then
          Table.add_row e
            [
              string_of_int w;
              string_of_int x;
              string_of_int (Affinity_graph.node_accesses g x);
              string_of_int y;
              string_of_int (Affinity_graph.node_accesses g y);
              Printf.sprintf "%s | %s" (chain x) (chain y);
            ])
      edges;
    Table.print e
    end
  in
  let file_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"ARTIFACT"
          ~doc:
            "Artifact to inspect (profile or plan), or a plan-cache \
             directory with $(b,--stats).")
  in
  let top_arg =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"Affinity edges to show (by weight).")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Treat the positional argument as a plan-cache directory and \
             print its cumulative hit/miss/store/eviction counters and \
             entries (persisted across processes by the cache's stats \
             ledger).")
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Render an artifact's header and hottest affinity edges, or a \
          plan-cache directory's counters with $(b,--stats).")
    Term.(const run $ file_arg $ top_arg $ stats_arg)

let profile_apply_cmd =
  let run w file seed chunk_size spare max_groups json_out =
    let program = w.Workload.make Workload.Test in
    let artifact =
      or_die
        (Store.read_profile ~expect_program:(Ir_digest.program program) file)
    in
    let pc =
      pipeline_config ~chunk_size ~spare ~max_groups ~affinity:None
    in
    let config =
      Workload.pipeline_config w
        { pc with Pipeline.profiler = artifact.Store.config }
    in
    let plan = or_die (Store.derive_plan ~config artifact.Store.result) in
    or_die (Store.check_sites program plan);
    let baseline = Runner.run ~seed w Runner.Jemalloc in
    let m = Runner.run ~seed ~plan:(Runner.Halo_plan plan) w Runner.Halo in
    print_measurement ~baseline m;
    match json_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Json.to_channel oc (Runner.to_json ~baseline m);
        close_out oc;
        Printf.printf "data points written to %s\n" path
  in
  let file_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"ARTIFACT"
          ~doc:"Recorded (or merged) profile artifact to apply.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write the run's data points as JSON.")
  in
  Cmd.v
    (Cmd.info "apply"
       ~doc:
         "Derive a plan from a recorded profile artifact and measure the \
          workload under it (the pipeline's apply phase) — no profiler run \
          involved.")
    Term.(
      const run $ workload_arg $ file_arg $ seed_arg $ chunk_size_arg
      $ spare_arg $ max_groups_arg $ json_arg)

let profile_cmd =
  Cmd.group
    (Cmd.info "profile"
       ~doc:
         "Persistent profiling artifacts: record runs, merge them across \
          inputs, inspect them, and apply them without re-profiling.")
    [
      profile_record_cmd;
      profile_merge_cmd;
      profile_inspect_cmd;
      profile_apply_cmd;
    ]

let run_cmd =
  let run w kind seed chunk_size spare max_groups affinity json_out trace_out =
    let pc = pipeline_config ~chunk_size ~spare ~max_groups ~affinity in
    let baseline = Runner.run ~seed w Runner.Jemalloc in
    let m =
      with_trace trace_out (fun obs ->
          match (obs, kind) with
          | None, Runner.Jemalloc -> baseline
          | _, Runner.Jemalloc -> Runner.run ?obs ~seed w kind
          | _ -> Runner.run ?obs ~seed ~pipeline_config:pc w kind)
    in
    print_measurement ~baseline m;
    match json_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Json.to_channel oc (Runner.to_json ~baseline m);
        close_out oc;
        Printf.printf "data points written to %s\n" path
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the run's data points as JSON (A.6 workflow).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Measure a workload under a configuration.")
    Term.(
      const run $ workload_arg $ kind_arg $ seed_arg $ chunk_size_arg $ spare_arg
      $ max_groups_arg $ affinity_arg $ json_arg $ trace_out_arg)

let top_arg =
  Arg.(
    value & opt int 10
    & info [ "top" ] ~docv:"N" ~doc:"Entries to show per ranked table.")

let load_telemetry path =
  match Telemetry.load path with
  | Ok t -> t
  | Error e ->
      Printf.eprintf "halo: %s: %s\n" path e;
      exit 1

let telemetry_report_cmd =
  let run file top = print_string (Telemetry.report_string ~top (load_telemetry file)) in
  let file_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"TRACE.json"
          ~doc:"Trace (from any $(b,--trace-out)) to analyse.")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Analyse a recorded trace: per-stage self-vs-total time, the \
          longest spans, and every metric's summary (histogram quantiles \
          re-derived from the merged sketches).")
    Term.(const run $ file_arg $ top_arg)

let telemetry_diff_cmd =
  let run file_a file_b threshold =
    let a = load_telemetry file_a and b = load_telemetry file_b in
    let table, regressed = Telemetry.diff_table ~threshold a b in
    Table.print table;
    if regressed then begin
      Printf.printf "metrics moved beyond %.0f%% (marked !)\n" (100.0 *. threshold);
      exit 1
    end
  in
  let file_a_arg =
    Arg.(
      required & pos 0 (some file) None
      & info [] ~docv:"A.json" ~doc:"Baseline trace.")
  in
  let file_b_arg =
    Arg.(
      required & pos 1 (some file) None
      & info [] ~docv:"B.json" ~doc:"Candidate trace.")
  in
  let threshold_arg =
    Arg.(
      value & opt float 0.10
      & info [ "threshold" ] ~docv:"FRACTION"
          ~doc:
            "Flag metrics whose representative statistic (counter value, \
             gauge level, histogram p99) moves by more than $(docv); exit 1 \
             when any does.")
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two recorded traces metric by metric; exits non-zero \
          when any metric moves beyond the threshold.")
    Term.(const run $ file_a_arg $ file_b_arg $ threshold_arg)

let telemetry_cmd =
  Cmd.group
    (Cmd.info "telemetry"
       ~doc:
         "Observability tooling: analyse a recorded trace, or diff two \
          traces with a regression threshold.")
    [ telemetry_report_cmd; telemetry_diff_cmd ]

let plan_cmd =
  let run w dot_file affinity =
    let pc =
      pipeline_config ~chunk_size:None ~spare:None ~max_groups:None ~affinity
    in
    let config = Workload.pipeline_config w pc in
    let program = w.Workload.make Workload.Test in
    let plan = Pipeline.plan ~config program in
    print_string (Pipeline.describe plan ~site_label:(Ir.site_label program));
    match dot_file with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc
          (Pipeline.graph_dot plan ~site_label:(Ir.site_label program));
        close_out oc;
        Printf.printf "affinity graph written to %s\n" path
  in
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE"
          ~doc:"Write the grouped affinity graph (Figure 9 analog) as dot.")
  in
  Cmd.v
    (Cmd.info "plan" ~doc:"Show the HALO optimisation plan for a workload.")
    Term.(const run $ workload_arg $ dot_arg $ affinity_arg)

let figures_cmd =
  let run sections jobs plan_cache trace_out =
    let cache = plan_cache_of plan_cache in
    let plan_source = Option.map Plan_cache.source cache in
    with_trace trace_out (fun obs ->
        Figures.print ~jobs:(effective_jobs jobs) ?obs ?plan_source sections);
    report_cache cache
  in
  let figures =
    Figures.
      [
        ("all", all);
        ("trials", trials);
        ("fig12", [ fig12 ]);
        ("fig13", [ fig13 ]);
        ("fig14", [ fig14 ]);
        ("fig15", [ fig15 ]);
        ("tab1", [ tab1 ]);
        ("sec51", [ sec51_baseline ]);
        ("overhead", [ overhead_control ]);
        ("diag", [ hds_diagnostics ]);
        ( "ablation",
          [ ablation_grouping; ablation_packing; ablation_identification;
            ablation_backend; ablation_sampling ] );
        ("drift", [ drift_study ]);
      ]
  in
  let which_arg =
    (* [absent] documents the default, so the enum never prints a section
       list (which holds closures, and so cannot be compared). *)
    Arg.(
      value
      & pos 0 (enum figures) Figures.all
      & info [] ~docv:"FIGURE" ~absent:"$(b,all)"
          ~doc:
            ("The tables to print, " ^ doc_alts_enum figures
           ^ ". $(b,trials) prints Figures 13-15 over five input seeds as median \
              [p25, p75]."))
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures.")
    Term.(const run $ which_arg $ jobs_arg $ plan_cache_arg $ trace_out_arg)

let contexts_cmd =
  let run w =
    let program = w.Workload.make Workload.Test in
    let r = Profiler.profile program in
    let label = Ir.site_label program in
    let graph = r.Profiler.graph in
    Printf.printf
      "%d contexts observed; %d tracked allocations; %d macro accesses\n\n"
      (Context.count r.Profiler.contexts)
      r.Profiler.tracked_allocs r.Profiler.total_accesses;
    Context.fold r.Profiler.contexts ~init:() ~f:(fun () id _sites ->
        Printf.printf "ctx %3d  %8d accesses%s  %s\n" id
          (Affinity_graph.node_accesses r.Profiler.raw_graph id)
          (if Affinity_graph.node_accesses graph id > 0 then "" else " (filtered)")
          (Context.label r.Profiler.contexts label id))
  in
  Cmd.v
    (Cmd.info "contexts"
       ~doc:"Profile a workload and list its allocation contexts.")
    Term.(const run $ workload_arg)

let disasm_cmd =
  let run w scale stats =
    let program = w.Workload.make scale in
    if stats then print_string (Ir_analysis.stats_to_string (Ir_analysis.analyse program))
    else print_string (Ir_print.program_to_string program)
  in
  let scale_arg =
    let scales =
      [ ("test", Workload.Test); ("train", Workload.Train); ("ref", Workload.Ref) ]
    in
    Arg.(
      value & opt (enum scales) Workload.Test
      & info [ "scale" ] ~docv:"SCALE"
          ~doc:("The program's input scale, " ^ doc_alts_enum scales ^ "."))
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print call-graph statistics instead of the IR.")
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Pretty-print a workload's IR with site addresses.")
    Term.(const run $ workload_arg $ scale_arg $ stats_arg)

let fuzz_cmd =
  let run seeds seed_base ref_scale time_budget replay corpus shrink_steps
      jobs trace_out plan_cache digests_out digests_check =
    let cache = plan_cache_of plan_cache in
    match (replay, digests_out, digests_check) with
    | None, Some path, _ ->
        (* Record the seed set's semantics: reference digests, plan shape
           and allocator-stat totals, one JSON record per seed. *)
        let records = Fuzz_harness.digest_sweep ~ref_scale ~seed_base ~seeds () in
        let failing = List.filter (fun r -> r.Fuzz_harness.d_failures > 0) records in
        if failing <> [] then begin
          List.iter
            (fun r ->
              Printf.printf "seed %d: %d oracle failures\n" r.Fuzz_harness.d_seed
                r.Fuzz_harness.d_failures)
            failing;
          print_endline "refusing to record a corpus with oracle failures";
          exit 1
        end;
        Fuzz_harness.save_digests ~path ~ref_scale records;
        Printf.printf "recorded %d case digests to %s\n" (List.length records) path
    | None, None, Some path -> (
        match Fuzz_harness.load_digests ~path with
        | Error e ->
            Printf.eprintf "halo: %s\n" e;
            exit 1
        | Ok (ref_scale, expected) -> (
            let got =
              Fuzz_harness.digest_sweep ~ref_scale
                ~seed_base:
                  (match expected with
                  | r :: _ -> r.Fuzz_harness.d_seed
                  | [] -> 1)
                ~seeds:(List.length expected) ()
            in
            match Fuzz_harness.check_digests ~expected got with
            | [] ->
                Printf.printf
                  "digest check: %d cases identical to %s (access digests, \
                   contexts, plans, allocator stats)\n"
                  (List.length expected) path
            | mismatches ->
                List.iter print_endline mismatches;
                Printf.printf "digest check: %d mismatches against %s\n"
                  (List.length mismatches) path;
                exit 1))
    | Some seed, _, _ ->
        let case, result = Fuzz_harness.replay ~ref_scale seed in
        Printf.printf "seed %d: %d trace decisions, %d IR statements (ref)\n"
          seed
          (Array.length case.Fuzz_gen.trace)
          (Fuzz_gen.stmt_count case.Fuzz_gen.ref_);
        let s = result.Fuzz_oracle.stats in
        Printf.printf
          "%d configurations, %d allocations, %d accesses, %d groups, %d \
           monitored sites\n"
          s.Fuzz_oracle.configs s.Fuzz_oracle.allocs s.Fuzz_oracle.accesses
          s.Fuzz_oracle.groups s.Fuzz_oracle.monitored;
        (match result.Fuzz_oracle.failures with
        | [] -> print_endline "oracle: pass"
        | fs ->
            List.iter
              (fun (f : Fuzz_oracle.failure) ->
                Printf.printf "FAIL [%s] %s\n" f.Fuzz_oracle.config
                  f.Fuzz_oracle.reason)
              fs;
            exit 1)
    | None, None, None ->
        let summary =
          with_trace trace_out (fun obs ->
              Fuzz_harness.run
                {
                  Fuzz_harness.default with
                  Fuzz_harness.seeds;
                  seed_base;
                  ref_scale;
                  time_budget;
                  corpus_dir = corpus;
                  shrink_steps;
                  plan_source = Option.map Plan_cache.source cache;
                  jobs = effective_jobs jobs;
                  obs;
                  log = Some print_endline;
                })
        in
        Printf.printf
          "%d cases in %.1fs: %d oracle violations (%d allocations, %d \
           accesses checked)\n"
          summary.Fuzz_harness.cases summary.Fuzz_harness.elapsed_s
          summary.Fuzz_harness.violations summary.Fuzz_harness.allocs
          summary.Fuzz_harness.accesses;
        report_cache cache;
        (match summary.Fuzz_harness.failing_seeds with
        | [] -> ()
        | l ->
            Printf.printf "failing seeds: %s\n"
              (String.concat ", " (List.map string_of_int l));
            List.iter
              (fun r ->
                Printf.printf
                  "\nseed %d shrunk to %d statements (replay with --replay \
                   %d):\n%s"
                  r.Fuzz_harness.seed r.Fuzz_harness.shrunk_stmts
                  r.Fuzz_harness.seed r.Fuzz_harness.shrunk_program)
              summary.Fuzz_harness.reports;
            exit 1)
  in
  let seeds_arg =
    Arg.(
      value & opt int 200
      & info [ "seeds" ] ~docv:"N" ~doc:"Number of seeds to sweep.")
  in
  let seed_base_arg =
    Arg.(
      value & opt int 1
      & info [ "seed-base" ] ~docv:"N" ~doc:"First seed of the campaign.")
  in
  let ref_scale_arg =
    Arg.(
      value & opt int 3
      & info [ "ref-scale" ] ~docv:"N"
          ~doc:"Loop-scale multiplier for measurement programs.")
  in
  let budget_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "time-budget" ] ~docv:"SECONDS"
          ~doc:"Stop starting new cases after $(docv).")
  in
  let replay_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "replay" ] ~docv:"SEED"
          ~doc:
            "Rebuild one seed's case, run the oracle once and exit — \
             bit-for-bit the campaign's view of that seed.")
  in
  let corpus_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Save failing cases (seed, trace, minimal program) as JSON.")
  in
  let shrink_arg =
    Arg.(
      value & opt int 2000
      & info [ "shrink-steps" ] ~docv:"N"
          ~doc:"Shrink budget (oracle replays) per failing case.")
  in
  let digests_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "digests-out" ] ~docv:"FILE"
          ~doc:
            "Record the seed set's semantics (reference digests, plan \
             shape, allocator stats) to $(docv) instead of running a \
             campaign; fails if any seed violates the oracle.")
  in
  let digests_check_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "digests-check" ] ~docv:"FILE"
          ~doc:
            "Re-run the seed set recorded in $(docv) and fail on any \
             semantic divergence from the recorded digests.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generative differential testing: sweep seeds through the full \
          pipeline, checking semantic equivalence across allocator \
          configurations, heap invariants and plan well-formedness; shrink \
          and report any failure.")
    Term.(
      const run $ seeds_arg $ seed_base_arg $ ref_scale_arg $ budget_arg
      $ replay_arg $ corpus_arg $ shrink_arg $ jobs_arg $ trace_out_arg
      $ plan_cache_arg $ digests_out_arg $ digests_check_arg)

(* ---------------- continuous-profiling service mode ---------------- *)

let serve_cmd =
  let run stdin_batch socket simulate jobs plan_cache staleness chunk_size
      spare max_groups affinity trace_out clients rounds record_prob drift
      sim_seed =
    let jobs = effective_jobs jobs in
    let cache = plan_cache_of plan_cache in
    let pc = pipeline_config ~chunk_size ~spare ~max_groups ~affinity in
    let cfg =
      { Serve.jobs; staleness_weight = staleness; pipeline = pc; cache }
    in
    let modes =
      (if stdin_batch then 1 else 0)
      + (match socket with Some _ -> 1 | None -> 0)
      + if simulate then 1 else 0
    in
    if modes <> 1 then begin
      Printf.eprintf
        "halo: serve needs exactly one of --stdin-batch, --socket PATH or \
         --simulate\n";
      exit 2
    end;
    with_trace trace_out (fun obs ->
        if stdin_batch then begin
          let engine = Serve.create ?obs cfg in
          let n = Serve.run_channels engine stdin stdout in
          Printf.eprintf "served %d responses\n" n
        end
        else
          match socket with
          | Some path ->
              let engine = Serve.create ?obs cfg in
              Printf.eprintf "listening on %s\n%!" path;
              let n = Serve.run_socket engine ~path in
              Printf.eprintf "served %d responses\n" n
          | None ->
              let engine = Serve.create ?obs cfg in
              List.iter
                (fun round ->
                  ignore (Serve.handle_batch engine round : Json.t list))
                (Serve_sim.job_stream
                   {
                     Serve_sim.clients;
                     rounds;
                     record_prob;
                     drift;
                     seed = sim_seed;
                   });
              print_endline (Json.to_string (Serve.stats_json engine)))
  in
  let stdin_arg =
    Arg.(
      value & flag
      & info [ "stdin-batch" ]
          ~doc:
            "Read job lines from stdin until end of input, answer each on \
             stdout in order, then exit (the CI/test mode). Responses are \
             byte-identical at any $(b,--jobs) count.")
  in
  let socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:
            "Serve jobs over a Unix-domain socket at $(docv) until a \
             shutdown job arrives.")
  in
  let simulate_arg =
    Arg.(
      value & flag
      & info [ "simulate" ]
          ~doc:
            "Replay the fleet simulator's job stream through an \
             in-process engine, one round per batch, and print its stats \
             as JSON. Latency quantiles, merge throughput and profiler \
             runs come from $(b,--trace-out) and $(b,telemetry report).")
  in
  let staleness_arg =
    Arg.(
      value
      & opt float Serve.default_staleness_weight
      & info [ "staleness-weight" ] ~docv:"W"
          ~doc:
            "New profile mass (merge weight) that invalidates a derived \
             plan; the next request re-derives from the aggregate.")
  in
  let clients_arg =
    Arg.(
      value & opt int 1000
      & info [ "clients" ] ~docv:"N" ~doc:"Simulated clients per round.")
  in
  let rounds_arg =
    Arg.(
      value & opt int 20
      & info [ "rounds" ] ~docv:"N" ~doc:"Simulation rounds (one batch each).")
  in
  let record_prob_arg =
    Arg.(
      value & opt float 0.02
      & info [ "record-prob" ] ~docv:"P"
          ~doc:"Per-client-per-round profile upload probability.")
  in
  let drift_arg =
    Arg.(
      value & opt float 0.25
      & info [ "drift" ] ~docv:"P"
          ~doc:"Per-round workload-popularity rotation probability.")
  in
  let sim_seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Simulator RNG seed.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Continuous-profiling service: accept line-delimited JSON jobs \
          (profile-record, plan-request, stats, shutdown) over stdin or a \
          Unix socket, folding profiles into per-program aggregates and \
          answering plan requests from the plan cache — or simulate a \
          whole fleet against it.")
    Term.(
      const run $ stdin_arg $ socket_arg $ simulate_arg $ jobs_arg
      $ plan_cache_arg $ staleness_arg $ chunk_size_arg $ spare_arg
      $ max_groups_arg $ affinity_arg $ trace_out_arg $ clients_arg
      $ rounds_arg $ record_prob_arg $ drift_arg $ sim_seed_arg)

(* ---------------- shaped multi-tenant traffic mode ---------------- *)

let traffic_spec_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "spec" ] ~docv:"FILE"
        ~doc:
          "Mix-spec file describing the schedule (one $(b,phase) or \
           $(b,pause) directive per line; see the README for the \
           grammar). When absent, a built-in drifting schedule is used, \
           shaped by $(b,--drift), $(b,--phases), $(b,--ticks-per-phase) \
           and $(b,--rate).")

let traffic_drift_arg =
  Arg.(
    value & opt non_negative_float 0.5
    & info [ "drift" ] ~docv:"R"
        ~doc:
          "Expected popularity-ranking rotations per phase of the \
           built-in drifting schedule (error-diffused, so 0.25 rotates \
           exactly once every four phases).")

let traffic_phases_arg =
  Arg.(
    value & opt positive_int 6
    & info [ "phases" ] ~docv:"N" ~doc:"Epochs in the drifting schedule.")

let traffic_ticks_arg =
  Arg.(
    value & opt positive_int 2
    & info [ "ticks-per-phase" ] ~docv:"N" ~doc:"Ticks per epoch.")

let traffic_rate_arg =
  Arg.(
    value & opt non_negative_float 4.0
    & info [ "rate" ] ~docv:"R"
        ~doc:"Jobs per tick of the drifting schedule.")

let traffic_workloads_arg =
  Arg.(
    value & opt (list string) []
    & info [ "workloads" ] ~docv:"W1,W2,..."
        ~doc:
          "Workloads the drifting schedule's popularity ranking rotates \
           over (default: the full registry).")

let traffic_seed_arg =
  Arg.(
    value & opt int 1
    & info [ "seed" ] ~docv:"N" ~doc:"Traffic seed (per-job seed streams).")

(* A spec and the built-in drifting schedule pass the same validation,
   and a schedule it rejects exits 1 with its message. *)
let traffic_schedule ~spec ~workloads ~ticks_per_phase ~rate ~phases ~drift =
  let checked what = function
    | Ok s -> s
    | Error e ->
        Printf.eprintf "halo: %s: %s\n" what e;
        exit 1
  in
  match spec with
  | Some path ->
      checked path
        (Schedule.of_spec (In_channel.with_open_bin path In_channel.input_all))
  | None ->
      let workloads = match workloads with [] -> None | l -> Some l in
      checked "drifting schedule"
        (match
           Schedule.drifting ?workloads ~ticks_per_phase ~rate ~phases ~drift ()
         with
        | s -> Result.map (fun () -> s) (Schedule.validate s)
        | exception Invalid_argument e -> Error e)

let traffic_run_cmd =
  let run spec workloads ticks_per_phase rate phases drift seed plan_budget
      reprofile_every window tenants trace_out json_out =
    let sched =
      traffic_schedule ~spec ~workloads ~ticks_per_phase ~rate ~phases ~drift
    in
    let config =
      {
        Traffic_mix.default_config with
        Traffic_mix.plan_budget;
        reprofile_every;
        window;
      }
    in
    let r =
      with_trace trace_out (fun obs -> Traffic_mix.run ?obs ~config ~seed sched)
    in
    Table.print (Traffic_mix.report_table r);
    if tenants then begin
      print_newline ();
      Table.print (Traffic_mix.tenant_table r)
    end;
    match json_out with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Json.to_channel oc (Traffic_mix.report_to_json r);
        close_out oc;
        Printf.printf "report written to %s\n" path
  in
  let plan_budget_arg =
    Arg.(
      value & opt non_negative_int Traffic_mix.default_config.Traffic_mix.plan_budget
      & info [ "plan-budget" ] ~docv:"K"
          ~doc:"Hottest-K workloads holding live plans at once.")
  in
  let reprofile_arg =
    Arg.(
      value & opt non_negative_int 2
      & info [ "reprofile-every" ] ~docv:"TICKS"
          ~doc:
            "Ticks between hot-set re-plans; 0 plans once at tick 0 and \
             lets the plan age forever (the stale baseline).")
  in
  let window_arg =
    Arg.(
      value & opt positive_int Traffic_mix.default_config.Traffic_mix.window
      & info [ "window" ] ~docv:"TICKS"
          ~doc:"Ticks of traffic history that vote on the hot set.")
  in
  let tenants_arg =
    Arg.(
      value & flag
      & info [ "tenants" ] ~doc:"Also print the per-tenant breakdown.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the full report (tenants, phases) as JSON.")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Execute a traffic schedule's job stream against one shared heap \
          with HALO plans applied per workload under a plan budget; \
          report coverage, miss rate and plan age per phase and tenant.")
    Term.(
      const run $ traffic_spec_arg $ traffic_workloads_arg $ traffic_ticks_arg
      $ traffic_rate_arg $ traffic_phases_arg $ traffic_drift_arg
      $ traffic_seed_arg $ plan_budget_arg $ reprofile_arg $ window_arg
      $ tenants_arg $ trace_out_arg $ json_arg)

let traffic_events_cmd =
  let run spec workloads ticks_per_phase rate phases drift seed dump =
    let sched =
      traffic_schedule ~spec ~workloads ~ticks_per_phase ~rate ~phases ~drift
    in
    let events = Schedule.events ~seed sched in
    if dump then
      List.iter
        (fun (e : Schedule.event) ->
          Printf.printf "%4d %2d %-12s %-12s %-10s %d\n" e.Schedule.ev_tick
            e.Schedule.ev_phase e.Schedule.ev_label e.Schedule.ev_tenant
            e.Schedule.ev_workload e.Schedule.ev_seed)
        events;
    Printf.printf "%d events, digest %s\n" (List.length events)
      (Schedule.digest events)
  in
  let dump_arg =
    Arg.(
      value & flag
      & info [ "dump" ]
          ~doc:"Print every event (tick, phase, tenant, workload, seed).")
  in
  Cmd.v
    (Cmd.info "events"
       ~doc:
         "Lower a schedule to its deterministic event stream and print \
          its FNV-1a digest — the identity the golden test and the CI \
          smoke pin.")
    Term.(
      const run $ traffic_spec_arg $ traffic_workloads_arg $ traffic_ticks_arg
      $ traffic_rate_arg $ traffic_phases_arg $ traffic_drift_arg
      $ traffic_seed_arg $ dump_arg)

let traffic_cmd =
  Cmd.group
    (Cmd.info "traffic"
       ~doc:
         "Shaped, drifting, multi-tenant workload traffic: execute a mix \
          schedule against one shared heap, or digest a schedule's event \
          stream. The plan-staleness drift study is $(b,figures drift).")
    [ traffic_run_cmd; traffic_events_cmd ]

let list_cmd =
  let run () =
    List.iter
      (fun w -> Printf.printf "%-10s %s\n" w.Workload.name w.Workload.description)
      Workloads.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List the available workloads.") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "halo" ~version:"1.0.0"
      ~doc:"HALO post-link heap-layout optimisation (simulated reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            run_cmd; telemetry_cmd; plan_cmd; profile_cmd; serve_cmd;
            traffic_cmd; figures_cmd; fuzz_cmd;
            disasm_cmd; contexts_cmd; list_cmd;
          ]))
