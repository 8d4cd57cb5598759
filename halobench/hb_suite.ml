(* paper-suite: the 11 registry workloads x {jemalloc, halo, hds,
   random-4}, cold (no plan cache), one measurement seed, fanned over a
   Par pool - the cells Figures.run_suite measures for Figures 13-15.

   The timed pass calls Runner.run per cell. The traced pass runs the
   same cells decomposed into the pipeline's public calls
   (Profiler.profile -> Pipeline.derive -> Pipeline.instantiate ->
   Engine.run, plus Hds_pipeline.plan), each under a span, and must
   reproduce Runner.run's rows exactly. *)

open Hb_common

(* The suite fans its cells over two worker domains (one on a one-core
   machine), as Figures.run_suite does on a two-core machine; a fixed
   count keeps wall times comparable across machines with more cores. *)
let domains = min 2 (Domain.recommended_domain_count ())

type programs = (Workload.t * Ir.program * Ir.program) list
(** Each workload with its Test (profiling) and Ref (measurement) program. *)

let build_programs () : programs =
  List.map
    (fun w -> (w, w.Workload.make Workload.Test, w.Workload.make Workload.Ref))
    Workloads.all

type cell = {
  w : Workload.t;
  kind : Runner.kind;
  result : (Runner.measurement * Pipeline.plan option, string) result;
  seconds : float;
}

(* One Runner.measure, rebuilt from public calls so Engine.run gets its
   own span. *)
let measure obs ~seed ~w ~kind ~program ~alloc ~patches ?env ~halo ~hds () =
  let hier = Hierarchy.create () in
  let hooks =
    { Interp.no_hooks with Interp.on_access = (fun a s _ -> Hierarchy.access hier a s) }
  in
  let e = Engine.create ~kind:Engine.Interp ~seed ~hooks ~patches ?env ~program ~alloc () in
  Obs.span obs "Engine.run" (fun () -> ignore (Engine.run e : int));
  let counters = Hierarchy.counters hier in
  let instructions = Engine.instructions e in
  let model = Timing.skylake_sp in
  let alloc_stats = alloc.Alloc_iface.stats () in
  let halo = halo () in
  {
    Runner.workload = w.Workload.name;
    kind;
    instructions;
    counters;
    cycles = Timing.cycles model ~instructions counters;
    seconds = Timing.seconds model ~instructions counters;
    alloc_stats;
    halo;
    hds;
  }

let decomposed obs ~seed (w, test, program) kind =
  let no_halo () = None in
  match kind with
  | Runner.Jemalloc ->
      let alloc = Jemalloc_sim.create (Vmem.create ()) in
      (measure obs ~seed ~w ~kind ~program ~alloc ~patches:[] ~halo:no_halo ~hds:None (), None)
  | Runner.Random_pools pools ->
      let vmem = Vmem.create () in
      let fallback = Jemalloc_sim.create vmem in
      let rng = Rng.create ~seed:(seed * 7919) in
      let classify ~size:_ = Some (Rng.int rng pools) in
      let config = w.Workload.halo_allocator Group_alloc.default_config in
      let galloc = Group_alloc.create ~config ~classify ~fallback vmem in
      ( measure obs ~seed ~w ~kind ~program ~alloc:(Group_alloc.iface galloc) ~patches:[]
          ~halo:no_halo ~hds:None (),
        None )
  | Runner.Halo ->
      let config = Hb_ladder.halo_config w in
      let profile =
        Obs.span obs "Profiler.profile" (fun () ->
            Profiler.profile ~config:config.Pipeline.profiler test)
      in
      let plan = Obs.span obs "Pipeline.derive" (fun () -> Pipeline.derive ~config profile) in
      let vmem = Vmem.create () in
      let fallback = Jemalloc_sim.create vmem in
      let rt =
        Obs.span obs "Pipeline.instantiate" (fun () -> Pipeline.instantiate plan ~fallback vmem)
      in
      let g = rt.Pipeline.galloc in
      let halo () =
        Some
          {
            Runner.groups = Array.length plan.Pipeline.grouping.Grouping.groups;
            monitored_sites = plan.Pipeline.rewrite.Rewrite.nbits;
            graph_nodes = List.length (Affinity_graph.nodes profile.Profiler.graph);
            frag = Group_alloc.frag_stats g;
            grouped_mallocs = Group_alloc.grouped_mallocs g;
            chunks_carved = Group_alloc.chunks_carved g;
            chunk_reuses = Group_alloc.reuses g;
          }
      in
      ( measure obs ~seed ~w ~kind ~program ~alloc:(Group_alloc.iface g)
          ~patches:rt.Pipeline.patches ~env:rt.Pipeline.env ~halo ~hds:None (),
        Some plan )
  | Runner.Hds ->
      let hplan =
        Obs.span obs "Hds_pipeline.plan" (fun () ->
            Hds_pipeline.plan ~config:Hds_pipeline.default_config ~merge_identical:false test)
      in
      let vmem = Vmem.create () in
      let fallback = Jemalloc_sim.create vmem in
      let env = Exec_env.create () in
      let classify = Hds_pipeline.classifier hplan ~env in
      let config = w.Workload.halo_allocator Group_alloc.default_config in
      let galloc = Group_alloc.create ~config ~classify ~fallback vmem in
      let hds =
        Some
          {
            Runner.pools = Array.length hplan.Hds_pipeline.groups;
            stream_count = hplan.Hds_pipeline.stream_count;
            selected_streams = hplan.Hds_pipeline.selected_streams;
            trace_length = hplan.Hds_pipeline.trace_length;
            hds_coverage = hplan.Hds_pipeline.coverage;
          }
      in
      ( measure obs ~seed ~w ~kind ~program ~alloc:(Group_alloc.iface galloc) ~patches:[] ~env
          ~halo:no_halo ~hds (),
        None )
  | k -> invalid_arg ("paper-suite: not a suite kind: " ^ Runner.kind_name k)

(* Submit every cell in Figures.run_suite's order and await them all.
   Each cell's latency runs from its start on a worker to its end. *)
let run_pass pool ~seed ~traced (programs : programs) =
  let futures =
    List.concat_map
      (fun ((w, _, _) as p) ->
        List.map
          (fun kind ->
            Par.submit pool (fun wobs ->
                let t0 = now_ns () in
                let result =
                  try
                    if traced then
                      Ok
                        (Obs.span wobs "cell"
                           ~attrs:
                             [
                               ("workload", Json.String w.Workload.name);
                               ("kind", Json.String (Runner.kind_name kind));
                             ]
                           (fun () -> decomposed wobs ~seed p kind))
                    else Ok (Runner.run ~seed w kind, None)
                  with e -> Error (Printexc.to_string e)
                in
                { w; kind; result; seconds = since_s t0 }))
          Figures.suite_kinds)
      programs
  in
  List.map Par.await futures

let measurement c = match c.result with Ok (m, _) -> Some m | Error _ -> None

let failed cells = List.length (List.filter (fun c -> Result.is_error c.result) cells)

let hds_streams cells =
  List.fold_left
    (fun acc c ->
      match measurement c with
      | Some { Runner.hds = Some h; _ } -> acc + h.Runner.stream_count
      | _ -> acc)
    0 cells

let find cells name kind =
  List.find_map
    (fun c -> if c.w.Workload.name = name && c.kind = kind then measurement c else None)
    cells

let rows_digest cells =
  digest_of_strings
    (List.map
       (fun c ->
         match c.result with
         | Ok (m, _) -> Json.to_string ~pretty:false (Runner.to_json m)
         | Error e -> "error: " ^ e)
       cells)

(* Output checks on one pass: every cell ran, and the four kinds of one
   workload retire identical accesses (allocation policy moves data, never
   changes the program's own loads and stores). *)
let check_pass cells =
  let errs = ref [] in
  List.iter
    (fun c ->
      match c.result with
      | Error e ->
          errs := Printf.sprintf "%s/%s raised %s" c.w.Workload.name (Runner.kind_name c.kind) e :: !errs
      | Ok _ -> ())
    cells;
  List.iter
    (fun w ->
      let name = w.Workload.name in
      let accs =
        List.filter_map
          (fun k -> Option.map (fun m -> m.Runner.counters.Hierarchy.accesses) (find cells name k))
          Figures.suite_kinds
      in
      match accs with
      | a :: rest when List.exists (( <> ) a) rest ->
          errs :=
            Printf.sprintf "%s: kinds retire different accesses (%s)" name
              (String.concat ", " (List.map string_of_int accs))
            :: !errs
      | _ -> ())
    Workloads.all;
  List.rev !errs

let ratio_geomean cells kind f =
  let xs =
    List.filter_map
      (fun w ->
        let name = w.Workload.name in
        match (find cells name Runner.Jemalloc, find cells name kind) with
        | Some b, Some m -> Some (f ~baseline:b m)
        | _ -> None)
      Workloads.all
  in
  if xs = [] then nan else geomean xs

(* Geomeans over the workloads of jemalloc cycles / HALO cycles, HALO L1D
   misses / jemalloc L1D misses, and jemalloc cycles / HDS cycles. *)
let quality cells =
  let speedup ~baseline m = baseline.Runner.cycles /. m.Runner.cycles in
  let miss_ratio ~baseline m =
    float_of_int m.Runner.counters.Hierarchy.l1_misses
    /. float_of_int (max 1 baseline.Runner.counters.Hierarchy.l1_misses)
  in
  ( ratio_geomean cells Runner.Halo speedup,
    ratio_geomean cells Runner.Halo miss_ratio,
    ratio_geomean cells Runner.Hds speedup )

let plans cells =
  List.filter_map
    (fun c -> match c.result with Ok (_, Some plan) -> Some (c.w, plan) | _ -> None)
    cells

(* Every HALO plan must pass the plan well-formedness oracle. *)
let check_plans (programs : programs) plans =
  List.concat_map
    (fun ((w : Workload.t), plan) ->
      let test = List.find_map (fun (w', t, _) -> if w' == w then Some t else None) programs in
      match test with
      | None -> [ w.Workload.name ^ ": no program" ]
      | Some program ->
          List.map (fun v -> w.Workload.name ^ ": plan: " ^ v) (Plan_check.check ~program plan))
    plans

(* Cache counters summed over every cell of a pass. *)
let cache_counts cells =
  let sum f =
    List.fold_left
      (fun acc c -> match measurement c with Some m -> acc + f m.Runner.counters | None -> acc)
      0 cells
  in
  {
    Hierarchy.accesses = sum (fun c -> c.Hierarchy.accesses);
    l1_misses = sum (fun c -> c.Hierarchy.l1_misses);
    l2_misses = sum (fun c -> c.Hierarchy.l2_misses);
    l3_misses = sum (fun c -> c.Hierarchy.l3_misses);
    tlb_misses = sum (fun c -> c.Hierarchy.tlb_misses);
    prefetches = sum (fun c -> c.Hierarchy.prefetches);
  }

let config_record =
  [
    ( "config",
      Json.Obj
        [
          ("workloads", Json.Int (List.length Workloads.all));
          ("kinds", Json.List (List.map (fun k -> Json.String (Runner.kind_name k)) Figures.suite_kinds));
          ("plan_cache", Json.Bool false);
          ("domains", Json.Int domains);
        ] );
  ]
