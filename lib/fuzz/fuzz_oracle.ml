type failure = { config : string; reason : string }

type stats = {
  configs : int;
  allocs : int;
  accesses : int;
  groups : int;
  monitored : int;
  contexts : int;
}

type result = {
  failures : failure list;
  stats : stats;
  ref_ret : (int, string) Stdlib.result;
  ref_dig : Fuzz_observe.digest;
}

(* Outcome of one configuration's run. *)
type run = {
  name : string;
  ret : (int, string) Stdlib.result; (* Error = crash message *)
  dig : Fuzz_observe.digest;
  heap : string list;
}

(* Everything a configuration contributes to the interpreter: the
   allocator plus (for rewritten-binary configs) the patch list and the
   shared execution environment. *)
type setup = {
  alloc : Alloc_iface.t;
  patches : (Ir.site * int) list;
  env : Exec_env.t option;
}

let plain alloc = { alloc; patches = []; env = None }

(* The measurement input seed; profiling (inside Pipeline.plan) uses the
   profiler config's own seed, mirroring the runner's test/ref split. *)
let interp_seed = 2

let empty_digest = Fuzz_observe.digest (Fuzz_observe.create ())

let run_config ~program ~name build =
  let vmem = Vmem.create () in
  match build vmem with
  | exception e ->
      { name; ret = Error (Printexc.to_string e); dig = empty_digest; heap = [] }
  | setup -> (
      let chk, checked = Heap_check.wrap setup.alloc in
      let recorder = Fuzz_observe.create () in
      let finish ret =
        {
          name;
          ret;
          dig = Fuzz_observe.digest recorder;
          heap = Heap_check.violations chk;
        }
      in
      match
        Interp.create ~seed:interp_seed
          ~hooks:(Fuzz_observe.hooks recorder)
          ~patches:setup.patches ?env:setup.env ~memcheck:vmem ~program
          ~alloc:checked ()
      with
      | exception e -> finish (Error (Printexc.to_string e))
      | interp -> (
          match Interp.run interp with
          | v -> finish (Ok v)
          | exception e -> finish (Error (Printexc.to_string e))))

let heap_failure run =
  match run.heap with
  | [] -> None
  | l ->
      let shown = List.filteri (fun i _ -> i < 3) l in
      let extra = List.length l - List.length shown in
      let suffix =
        if extra > 0 then Printf.sprintf " (+%d more)" extra else ""
      in
      Some
        {
          config = run.name;
          reason = "heap: " ^ String.concat " | " shown ^ suffix;
        }

let crash_failure run =
  match run.ret with
  | Ok _ -> None
  | Error msg -> Some { config = run.name; reason = "crash: " ^ msg }

let divergence_failure ~reference run =
  match (reference.ret, run.ret) with
  | Ok r0, Ok r when r0 <> r || not (Fuzz_observe.equal reference.dig run.dig)
    ->
      let parts =
        if r0 <> r then
          [ Printf.sprintf "return value: expected %d, got %d" r0 r ]
        else []
      in
      let dig =
        Fuzz_observe.describe_mismatch ~expected:reference.dig ~got:run.dig
      in
      let parts = if dig = "" then parts else parts @ [ dig ] in
      Some
        {
          config = run.name;
          reason = "divergence: " ^ String.concat "; " parts;
        }
  | _ -> None (* crashes are reported separately; nothing to compare *)

let run_case ?(extra = []) ?plan_source (case : Fuzz_gen.case) =
  let program = case.Fuzz_gen.ref_ in
  let runs = ref [] in
  let push r = runs := r :: !runs in

  let reference =
    run_config ~program ~name:"jemalloc" (fun vmem ->
        plain (Jemalloc_sim.create vmem))
  in
  push reference;
  push
    (run_config ~program ~name:"bump" (fun vmem -> plain (Bump.create vmem)));
  push
    (run_config ~program ~name:"ptmalloc" (fun vmem ->
         plain (Ptmalloc_sim.create vmem)));
  push
    (run_config ~program ~name:"random-4" (fun vmem ->
         (* Figure 15's strawman, built as Runner builds it: HALO's
            allocator with a uniformly random classifier. *)
         let rng = Rng.create ~seed:((case.Fuzz_gen.seed * 31) + 7) in
         plain
           (Group_alloc.iface
              (Group_alloc.create
                 ~classify:(fun ~size:_ -> Some (Rng.int rng 4))
                 ~fallback:(Jemalloc_sim.create vmem) vmem))));
  List.iter
    (fun (name, build) ->
      push (run_config ~program ~name (fun vmem -> plain (build vmem))))
    extra;

  (* HALO: plan on the test-scale program, measure on ref — structural
     pairing guarantees the patch sites exist in both. *)
  let plan_failures = ref [] in
  let groups = ref 0 and monitored = ref 0 and contexts = ref 0 in
  (match Pipeline.plan ?source:plan_source case.Fuzz_gen.test with
  | exception e ->
      plan_failures :=
        [ { config = "plan"; reason = "crash: " ^ Printexc.to_string e } ]
  | plan ->
      groups := Array.length plan.Pipeline.grouping.Grouping.groups;
      monitored := plan.Pipeline.rewrite.Rewrite.nbits;
      contexts := Context.count plan.Pipeline.profile.Profiler.contexts;
      plan_failures :=
        List.map
          (fun v -> { config = "plan"; reason = v })
          (Plan_check.check ~program:case.Fuzz_gen.test plan);
      let nbits = max plan.Pipeline.rewrite.Rewrite.nbits 1 in
      push
        (run_config ~program ~name:"halo-noalloc" (fun vmem ->
             {
               alloc = Jemalloc_sim.create vmem;
               patches = plan.Pipeline.rewrite.Rewrite.patches;
               env = Some (Exec_env.create ~group_bits:nbits ());
             }));
      push
        (run_config ~program ~name:"halo" (fun vmem ->
             let fallback = Jemalloc_sim.create vmem in
             let rt = Pipeline.instantiate plan ~fallback vmem in
             {
               alloc = Group_alloc.iface rt.Pipeline.galloc;
               patches = rt.Pipeline.patches;
               env = Some rt.Pipeline.env;
             })));

  let runs = List.rev !runs in
  let failures =
    !plan_failures
    @ List.concat_map
        (fun r ->
          let cmp =
            if r.name = "jemalloc" then None
            else divergence_failure ~reference r
          in
          List.filter_map Fun.id [ crash_failure r; heap_failure r; cmp ])
        runs
  in
  let stats =
    {
      configs = List.length runs;
      allocs =
        List.fold_left (fun a r -> a + r.dig.Fuzz_observe.allocs) 0 runs;
      accesses =
        List.fold_left (fun a r -> a + r.dig.Fuzz_observe.accesses) 0 runs;
      groups = !groups;
      monitored = !monitored;
      contexts = !contexts;
    }
  in
  { failures; stats; ref_ret = reference.ret; ref_dig = reference.dig }
