(* Tests for halo_fuzz: decision sources, the generator's determinism and
   structural pairing, the heap/plan oracles, the differential oracle
   end-to-end, shrinking, and the campaign harness.

   The fault-injection tests wire deliberately broken allocators into the
   oracle's [extra] battery and check that the violation is caught and
   minimised — the property the whole subsystem exists for. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool

(* ---------------- Dsource ---------------- *)

let dsource_record_replay_roundtrip () =
  let src = Dsource.recording (Rng.create ~seed:5) in
  let vals = List.init 20 (fun k -> Dsource.draw src (k + 2)) in
  let rep = Dsource.replaying (Dsource.trace src) in
  let vals' = List.init 20 (fun k -> Dsource.draw rep (k + 2)) in
  check (Alcotest.list Alcotest.int) "same decisions" vals vals'

let dsource_replay_clamps () =
  let rep = Dsource.replaying [| 100; 7 |] in
  checki "clamped with modulo" (100 mod 3) (Dsource.draw rep 3);
  checki "in-range value untouched" 7 (Dsource.draw rep 10)

let dsource_exhaustion_draws_zero () =
  let rep = Dsource.replaying [||] in
  checki "exhausted draw" 0 (Dsource.draw rep 9);
  checki "exhausted draw_in lands on lo" 4 (Dsource.draw_in rep 4 9);
  checki "exhausted weighted picks index 0" 0
    (Dsource.weighted rep [| 1; 5; 5 |])

let dsource_normalizes_trace () =
  (* Replay re-records effective values: the normalized trace is the
     clamped one, and replaying it again is a fixpoint. *)
  let rep = Dsource.replaying [| 100; 9; 42 |] in
  ignore (Dsource.draw rep 3 : int);
  ignore (Dsource.draw rep 5 : int);
  check
    (Alcotest.array Alcotest.int)
    "only consumed decisions, clamped" [| 100 mod 3; 9 mod 5 |]
    (Dsource.trace rep)

(* ---------------- Generator ---------------- *)

let gen_deterministic () =
  let a = Fuzz_gen.generate ~seed:33 () in
  let b = Fuzz_gen.generate ~seed:33 () in
  check (Alcotest.array Alcotest.int) "same trace" a.Fuzz_gen.trace
    b.Fuzz_gen.trace;
  check Alcotest.string "same ref program"
    (Ir_print.program_to_string a.Fuzz_gen.ref_)
    (Ir_print.program_to_string b.Fuzz_gen.ref_)

let gen_structural_pairing () =
  (* The profiled (test) and measured (ref) programs must get identical
     site assignments — the invariant the whole pipeline split rests on. *)
  for seed = 1 to 20 do
    let c = Fuzz_gen.generate ~seed () in
    check (Alcotest.list Alcotest.int) "same sites"
      (Ir.sites c.Fuzz_gen.test)
      (Ir.sites c.Fuzz_gen.ref_)
  done

let gen_of_trace_is_fixpoint () =
  let c = Fuzz_gen.generate ~seed:77 () in
  let c' = Fuzz_gen.of_trace ~seed:77 c.Fuzz_gen.trace in
  check (Alcotest.array Alcotest.int) "normalized trace" c.Fuzz_gen.trace
    c'.Fuzz_gen.trace;
  check Alcotest.string "same program"
    (Ir_print.program_to_string c.Fuzz_gen.ref_)
    (Ir_print.program_to_string c'.Fuzz_gen.ref_)

let gen_arbitrary_traces_valid () =
  (* Replay is total: any int array builds a program that finalizes and
     runs to completion. *)
  List.iteri
    (fun k trace ->
      let c = Fuzz_gen.of_trace ~seed:k trace in
      let vmem = Vmem.create () in
      let interp =
        Interp.create ~seed:2 ~program:c.Fuzz_gen.ref_
          ~alloc:(Jemalloc_sim.create vmem) ~memcheck:vmem ()
      in
      ignore (Interp.run interp : int))
    [ [||]; [| 0 |]; [| 9; 9; 9; 9; 9 |]; Array.make 80 max_int ]

(* ---------------- Heap_check ---------------- *)

(* Returns the same block twice on every second malloc: overlapping live
   objects, the classic catastrophic allocator bug. *)
let evil_overlap_alloc vmem =
  let base = Jemalloc_sim.create vmem in
  let count = ref 0 in
  let last = ref Addr.null in
  let malloc n =
    incr count;
    if !count mod 2 = 0 && !last <> Addr.null then !last
    else begin
      let a = base.Alloc_iface.malloc n in
      last := a;
      a
    end
  in
  { base with Alloc_iface.name = "evil-overlap"; malloc }

let heap_check_clean_allocator () =
  let vmem = Vmem.create () in
  let chk, iface = Heap_check.wrap (Jemalloc_sim.create vmem) in
  let a = iface.Alloc_iface.malloc 16 in
  let b = iface.Alloc_iface.malloc 32 in
  iface.Alloc_iface.free a;
  iface.Alloc_iface.free b;
  check (Alcotest.list Alcotest.string) "no violations" []
    (Heap_check.violations chk);
  checki "no live blocks left" 0 (Heap_check.live_blocks chk)

let heap_check_catches_overlap () =
  let vmem = Vmem.create () in
  let chk, iface = Heap_check.wrap (evil_overlap_alloc vmem) in
  let a = iface.Alloc_iface.malloc 16 in
  let b = iface.Alloc_iface.malloc 16 in
  checki "evil returned the same block" a b;
  checkb "violation recorded" true (Heap_check.violations chk <> [])

let heap_check_catches_misalignment () =
  let vmem = Vmem.create () in
  let base = Jemalloc_sim.create vmem in
  let skewed =
    { base with Alloc_iface.malloc = (fun n -> base.Alloc_iface.malloc n + 4) }
  in
  let chk, iface = Heap_check.wrap skewed in
  ignore (iface.Alloc_iface.malloc 8 : Addr.t);
  checkb "misalignment recorded" true
    (List.exists
       (fun v ->
         let has_sub needle =
           let nl = String.length needle and vl = String.length v in
           let rec go i =
             i + nl <= vl && (String.sub v i nl = needle || go (i + 1))
           in
           go 0
         in
         has_sub "aligned")
       (Heap_check.violations chk))

let heap_check_catches_unmatched_free () =
  let vmem = Vmem.create () in
  let base = Jemalloc_sim.create vmem in
  (* Swallow frees so the base allocator can't crash; the checker must
     still flag the bogus address. *)
  let chk, iface =
    Heap_check.wrap { base with Alloc_iface.free = (fun _ -> ()) }
  in
  iface.Alloc_iface.free 0x1234568;
  checkb "unmatched free recorded" true (Heap_check.violations chk <> [])

(* ---------------- Plan_check ---------------- *)

(* A seed whose plan actually monitors sites, so corruptions have
   something to corrupt. *)
let planned_case () =
  let rec find seed =
    if seed > 50 then Alcotest.fail "no seed produced a plan with patches"
    else
      let c = Fuzz_gen.generate ~seed () in
      let plan = Pipeline.plan c.Fuzz_gen.test in
      if plan.Pipeline.rewrite.Rewrite.patches <> [] then (c, plan)
      else find (seed + 1)
  in
  find 1

let plan_check_accepts_real_plans () =
  for seed = 1 to 15 do
    let c = Fuzz_gen.generate ~seed () in
    let plan = Pipeline.plan c.Fuzz_gen.test in
    check (Alcotest.list Alcotest.string) "well-formed" []
      (Plan_check.check ~program:c.Fuzz_gen.test plan)
  done

let plan_check_catches_oversized_bits () =
  let c, plan = planned_case () in
  let rw = plan.Pipeline.rewrite in
  let bad =
    {
      plan with
      Pipeline.rewrite = { rw with Rewrite.nbits = Rewrite.max_bits + 1 };
    }
  in
  checkb "flagged" true (Plan_check.check ~program:c.Fuzz_gen.test bad <> [])

let plan_check_catches_dead_patch_site () =
  let c, plan = planned_case () in
  let rw = plan.Pipeline.rewrite in
  let patches =
    match rw.Rewrite.patches with
    | (_, bit) :: rest -> (0xdead00, bit) :: rest
    | [] -> []
  in
  let bad = { plan with Pipeline.rewrite = { rw with Rewrite.patches } } in
  checkb "flagged" true (Plan_check.check ~program:c.Fuzz_gen.test bad <> [])

let plan_check_catches_dropped_selectors () =
  let c, plan = planned_case () in
  let bad = { plan with Pipeline.selectors = [] } in
  checkb "flagged" true (Plan_check.check ~program:c.Fuzz_gen.test bad <> [])

(* ---------------- Oracle ---------------- *)

let oracle_passes_healthy_pipeline () =
  for seed = 1 to 25 do
    let c = Fuzz_gen.generate ~seed () in
    let r = Fuzz_oracle.run_case c in
    (match r.Fuzz_oracle.failures with
    | [] -> ()
    | f :: _ ->
        Alcotest.failf "seed %d: [%s] %s" seed f.Fuzz_oracle.config
          f.Fuzz_oracle.reason);
    checkb "full battery ran" true (r.Fuzz_oracle.stats.Fuzz_oracle.configs >= 6)
  done

let oracle_deterministic () =
  let c = Fuzz_gen.generate ~seed:3 () in
  let a = Fuzz_oracle.run_case c in
  let b = Fuzz_oracle.run_case c in
  checki "same allocs" a.Fuzz_oracle.stats.Fuzz_oracle.allocs
    b.Fuzz_oracle.stats.Fuzz_oracle.allocs;
  checki "same accesses" a.Fuzz_oracle.stats.Fuzz_oracle.accesses
    b.Fuzz_oracle.stats.Fuzz_oracle.accesses;
  checki "same failure count"
    (List.length a.Fuzz_oracle.failures)
    (List.length b.Fuzz_oracle.failures)

let oracle_catches_evil_allocator () =
  let caught =
    List.exists
      (fun seed ->
        let c = Fuzz_gen.generate ~seed () in
        let r =
          Fuzz_oracle.run_case ~extra:[ ("evil", evil_overlap_alloc) ] c
        in
        List.exists
          (fun (f : Fuzz_oracle.failure) -> f.Fuzz_oracle.config = "evil")
          r.Fuzz_oracle.failures)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  checkb "overlapping allocator detected" true caught

(* ---------------- Shrinker ---------------- *)

let shrink_minimises_evil_failure () =
  let extra = [ ("evil", evil_overlap_alloc) ] in
  let failing c =
    (Fuzz_oracle.run_case ~extra c).Fuzz_oracle.failures <> []
  in
  let rec first seed =
    if seed > 30 then Alcotest.fail "no failing seed found"
    else
      let c = Fuzz_gen.generate ~seed () in
      if failing c then c else first (seed + 1)
  in
  let c = first 1 in
  let r = Fuzz_shrink.shrink ~max_steps:800 ~failing c in
  checkb "shrunk case still fails" true (failing r.Fuzz_shrink.case);
  checkb "trace no longer" true
    (Array.length r.Fuzz_shrink.case.Fuzz_gen.trace
    <= Array.length c.Fuzz_gen.trace);
  let stmts = Fuzz_gen.stmt_count r.Fuzz_shrink.case.Fuzz_gen.ref_ in
  if stmts >= 30 then
    Alcotest.failf "shrunk case still has %d statements" stmts

let shrink_keeps_passing_case_intact () =
  (* With an unsatisfiable predicate nothing is ever accepted. *)
  let c = Fuzz_gen.generate ~seed:11 () in
  let r = Fuzz_shrink.shrink ~max_steps:50 ~failing:(fun _ -> false) c in
  checki "no mutation accepted" 0 r.Fuzz_shrink.accepted;
  check (Alcotest.array Alcotest.int) "case unchanged" c.Fuzz_gen.trace
    r.Fuzz_shrink.case.Fuzz_gen.trace

(* ---------------- Harness ---------------- *)

let harness_clean_campaign () =
  let s =
    Fuzz_harness.run { Fuzz_harness.default with Fuzz_harness.seeds = 30 }
  in
  checki "all cases ran" 30 s.Fuzz_harness.cases;
  checki "no violations" 0 s.Fuzz_harness.violations;
  check (Alcotest.list Alcotest.int) "no failing seeds" []
    s.Fuzz_harness.failing_seeds;
  checkb "allocations exercised" true (s.Fuzz_harness.allocs > 0)

let harness_replay_deterministic () =
  let c1, r1 = Fuzz_harness.replay 9 in
  let c2, r2 = Fuzz_harness.replay 9 in
  check (Alcotest.array Alcotest.int) "same trace" c1.Fuzz_gen.trace
    c2.Fuzz_gen.trace;
  checki "same allocs" r1.Fuzz_oracle.stats.Fuzz_oracle.allocs
    r2.Fuzz_oracle.stats.Fuzz_oracle.allocs

let harness_evil_campaign_saves_corpus () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "halo_fuzz_corpus_%d" (Unix.getpid ()))
  in
  let s =
    Fuzz_harness.run
      {
        Fuzz_harness.default with
        Fuzz_harness.seeds = 6;
        corpus_dir = Some dir;
        shrink_steps = 400;
        extra = [ ("evil", evil_overlap_alloc) ];
      }
  in
  checkb "violations found" true (s.Fuzz_harness.violations > 0);
  checkb "reports produced" true (s.Fuzz_harness.reports <> []);
  List.iter
    (fun (r : Fuzz_harness.case_report) ->
      match r.Fuzz_harness.saved_to with
      | Some path ->
          checkb "corpus file exists" true (Sys.file_exists path);
          checkb "corpus file is json" true
            (String.length r.Fuzz_harness.shrunk_program > 0
            && Json.to_string (Fuzz_harness.report_json r) <> "")
      | None -> Alcotest.fail "failing case was not saved")
    s.Fuzz_harness.reports;
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  Unix.rmdir dir

let harness_jobs_equivalence () =
  (* Campaign verdicts must be independent of the worker-domain count:
     every case carries its own decision stream, RNG and heaps, and the
     epilogue aggregates in seed order. *)
  let campaign jobs extra =
    Fuzz_harness.run
      {
        Fuzz_harness.default with
        Fuzz_harness.seeds = 20;
        shrink_steps = 400;
        jobs;
        extra;
      }
  in
  let a = campaign 1 [] and b = campaign 4 [] in
  checki "cases" a.Fuzz_harness.cases b.Fuzz_harness.cases;
  checki "violations" a.Fuzz_harness.violations b.Fuzz_harness.violations;
  checki "allocs" a.Fuzz_harness.allocs b.Fuzz_harness.allocs;
  checki "accesses" a.Fuzz_harness.accesses b.Fuzz_harness.accesses;
  check (Alcotest.list Alcotest.int) "failing seeds" a.Fuzz_harness.failing_seeds
    b.Fuzz_harness.failing_seeds;
  (* And with failures in play: identical reports, in seed order. *)
  let evil = [ ("evil", evil_overlap_alloc) ] in
  let a = campaign 1 evil and b = campaign 3 evil in
  checkb "evil campaign fails" true (a.Fuzz_harness.violations > 0);
  checki "violations" a.Fuzz_harness.violations b.Fuzz_harness.violations;
  check (Alcotest.list Alcotest.int) "failing seeds" a.Fuzz_harness.failing_seeds
    b.Fuzz_harness.failing_seeds;
  List.iter2
    (fun (ra : Fuzz_harness.case_report) (rb : Fuzz_harness.case_report) ->
      checki "report seed" ra.Fuzz_harness.seed rb.Fuzz_harness.seed;
      check (Alcotest.array Alcotest.int) "shrunk trace"
        ra.Fuzz_harness.shrunk_trace rb.Fuzz_harness.shrunk_trace;
      check Alcotest.string "shrunk program" ra.Fuzz_harness.shrunk_program
        rb.Fuzz_harness.shrunk_program)
    a.Fuzz_harness.reports b.Fuzz_harness.reports

let harness_time_budget_stops () =
  let s =
    Fuzz_harness.run
      {
        Fuzz_harness.default with
        Fuzz_harness.seeds = 1_000_000;
        time_budget = Some 0.2;
      }
  in
  checkb "stopped early" true (s.Fuzz_harness.cases < 1_000_000);
  checkb "did some work" true (s.Fuzz_harness.cases > 0)

(* A budget that has run out before any case starts still runs the
   first seed, and only that one. *)
let harness_spent_budget_runs_first_case () =
  let s =
    Fuzz_harness.run
      { Fuzz_harness.default with Fuzz_harness.seeds = 1_000; time_budget = Some 0.0 }
  in
  Alcotest.check Alcotest.int "exactly the first case" 1 s.Fuzz_harness.cases

(* ---------------- Semantic digest pinning ---------------- *)

(* Golden observables for seeds 1-3 at ref-scale 8 (same parameters as
   test/fuzz_digests_golden.json). Hard literals, on purpose: any change
   to interpreter/profiler/planner semantics — a paged-memory bug, a
   context-cache invalidation miss, a heap-model fast-path divergence —
   flips a digest and fails here, inside tier-1, without touching the
   filesystem. Re-record via
   `halo_cli fuzz --digests-out ... --seeds 60 --ref-scale 8` only when a
   semantic change is intended. *)
let digest_corpus_pinned () =
  let got = Fuzz_harness.digest_sweep ~ref_scale:8 ~seed_base:1 ~seeds:3 () in
  let expected =
    [
      {
        Fuzz_harness.d_seed = 1;
        d_failures = 0;
        d_ret = Ok 923331;
        d_dig =
          {
            Fuzz_observe.allocs = 9;
            frees = 4;
            accesses = 21;
            site_digest = 2757686650055092693;
            access_digest = 662406446348581391;
            free_digest = 1615652273819640566;
          };
        d_stats =
          {
            Fuzz_oracle.configs = 6;
            allocs = 54;
            accesses = 126;
            groups = 0;
            monitored = 0;
            contexts = 8;
          };
      };
      {
        Fuzz_harness.d_seed = 2;
        d_failures = 0;
        d_ret = Ok 165;
        d_dig =
          {
            Fuzz_observe.allocs = 2;
            frees = 2;
            accesses = 5;
            site_digest = 3807125274368679493;
            access_digest = 3719642374972706499;
            free_digest = 12650750086017498;
          };
        d_stats =
          {
            Fuzz_oracle.configs = 6;
            allocs = 12;
            accesses = 30;
            groups = 0;
            monitored = 0;
            contexts = 2;
          };
      };
      {
        Fuzz_harness.d_seed = 3;
        d_failures = 0;
        d_ret = Ok 5766;
        d_dig =
          {
            Fuzz_observe.allocs = 3;
            frees = 2;
            accesses = 4;
            site_digest = 4546001803694920757;
            access_digest = 3525967202767498767;
            free_digest = 12650750086017498;
          };
        d_stats =
          {
            Fuzz_oracle.configs = 6;
            allocs = 18;
            accesses = 24;
            groups = 0;
            monitored = 0;
            contexts = 3;
          };
      };
    ]
  in
  check (Alcotest.list Alcotest.string) "semantics pinned" []
    (Fuzz_harness.check_digests ~expected got)

let digest_json_roundtrip () =
  let records = Fuzz_harness.digest_sweep ~ref_scale:4 ~seed_base:7 ~seeds:5 () in
  match
    Fuzz_harness.digests_of_json
      (Fuzz_harness.digests_json ~ref_scale:4 records)
  with
  | Error e -> Alcotest.failf "decode failed: %s" e
  | Ok (scale, records') ->
      checki "ref_scale" 4 scale;
      check (Alcotest.list Alcotest.string) "records roundtrip" []
        (Fuzz_harness.check_digests ~expected:records records');
      checki "same count" (List.length records) (List.length records')

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "dsource: record/replay roundtrip" dsource_record_replay_roundtrip;
    tc "dsource: replay clamps" dsource_replay_clamps;
    tc "dsource: exhaustion draws zero" dsource_exhaustion_draws_zero;
    tc "dsource: trace normalized on replay" dsource_normalizes_trace;
    tc "gen: deterministic per seed" gen_deterministic;
    tc "gen: test/ref share sites" gen_structural_pairing;
    tc "gen: of_trace is a fixpoint" gen_of_trace_is_fixpoint;
    tc "gen: arbitrary traces build runnable programs"
      gen_arbitrary_traces_valid;
    tc "heap_check: clean allocator passes" heap_check_clean_allocator;
    tc "heap_check: overlap caught" heap_check_catches_overlap;
    tc "heap_check: misalignment caught" heap_check_catches_misalignment;
    tc "heap_check: unmatched free caught" heap_check_catches_unmatched_free;
    tc "plan_check: real plans accepted" plan_check_accepts_real_plans;
    tc "plan_check: oversized bit vector caught"
      plan_check_catches_oversized_bits;
    tc "plan_check: dead patch site caught" plan_check_catches_dead_patch_site;
    tc "plan_check: dropped selectors caught"
      plan_check_catches_dropped_selectors;
    tc "oracle: healthy pipeline passes 25 seeds" oracle_passes_healthy_pipeline;
    tc "oracle: deterministic" oracle_deterministic;
    tc "oracle: evil allocator caught" oracle_catches_evil_allocator;
    tc "shrink: evil failure minimised below 30 stmts"
      shrink_minimises_evil_failure;
    tc "shrink: nothing accepted on passing case"
      shrink_keeps_passing_case_intact;
    tc "harness: clean campaign" harness_clean_campaign;
    tc "harness: replay deterministic" harness_replay_deterministic;
    tc "harness: evil campaign shrinks and saves corpus"
      harness_evil_campaign_saves_corpus;
    tc "harness: verdicts independent of jobs" harness_jobs_equivalence;
    tc "harness: time budget stops campaign" harness_time_budget_stops;
    tc "harness: spent budget still runs the first case" harness_spent_budget_runs_first_case;
    tc "digests: corpus semantics pinned" digest_corpus_pinned;
    tc "digests: json roundtrip" digest_json_roundtrip;
  ]
