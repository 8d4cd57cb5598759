(* Tests for halo_traffic: the schedule combinator language (curve
   evaluation, validation, deterministic event lowering, mix-spec text
   round-trips), the shared-heap mix executor, and the drift study's
   --jobs invariance. The golden digest pins the event stream's identity
   — any change to rate lowering, apportionment or per-tenant seed
   derivation flips it and fails here, inside tier-1. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string
let checkf = Alcotest.check (Alcotest.float 1e-9)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---------------- curves ---------------- *)

let curve_eval () =
  checkf "const" 3.0 (Schedule.eval (Schedule.Const 3.0) ~pos:0.4);
  checkf "linear start" 2.0
    (Schedule.eval (Schedule.Linear { from_ = 2.0; to_ = 6.0 }) ~pos:0.0);
  checkf "linear end" 6.0
    (Schedule.eval (Schedule.Linear { from_ = 2.0; to_ = 6.0 }) ~pos:1.0);
  checkf "linear mid" 4.0
    (Schedule.eval (Schedule.Linear { from_ = 2.0; to_ = 6.0 }) ~pos:0.5);
  checkf "pos clamped low" 2.0
    (Schedule.eval (Schedule.Linear { from_ = 2.0; to_ = 6.0 }) ~pos:(-1.0));
  checkf "pos clamped high" 6.0
    (Schedule.eval (Schedule.Linear { from_ = 2.0; to_ = 6.0 }) ~pos:2.0);
  checkf "exp is geometric" 2.0
    (Schedule.eval (Schedule.Exp { from_ = 1.0; to_ = 4.0 }) ~pos:0.5)

(* ---------------- validation ---------------- *)

let rejected s =
  match Schedule.validate s with Error _ -> true | Ok () -> false

let validate_rejects () =
  let t = Schedule.tenant "health" in
  checkb "zero ticks" true
    (rejected [ Schedule.phase ~label:"p" ~ticks:0 ~rate:(Schedule.Const 1.0) [ t ] ]);
  checkb "negative rate" true
    (rejected
       [ Schedule.phase ~label:"p" ~ticks:1 ~rate:(Schedule.Const (-1.0)) [ t ] ]);
  checkb "exp endpoint zero" true
    (rejected
       [
         Schedule.phase ~label:"p" ~ticks:1
           ~rate:(Schedule.Exp { from_ = 0.0; to_ = 1.0 })
           [ t ];
       ]);
  checkb "burst wider than period" true
    (rejected
       [
         Schedule.phase ~label:"p" ~ticks:2
           ~burst:{ Schedule.period = 2; width = 3; gain = 2.0 }
           ~rate:(Schedule.Const 1.0) [ t ];
       ]);
  checkb "duplicate tenant names" true
    (rejected
       [ Schedule.phase ~label:"p" ~ticks:1 ~rate:(Schedule.Const 1.0) [ t; t ] ]);
  (match
     Schedule.validate
       [
         Schedule.phase ~label:"p" ~ticks:1 ~rate:(Schedule.Const 1.0)
           [ Schedule.tenant "nosuch" ];
       ]
   with
  | Ok () -> Alcotest.fail "unknown workload accepted"
  | Error e ->
      checkb "error names the workload" true (contains e "nosuch");
      checkb "error lists known names" true (contains e "health"));
  checkb "valid schedule accepted" false
    (rejected [ Schedule.phase ~label:"p" ~ticks:3 ~rate:(Schedule.Const 2.0) [ t ] ]);
  Alcotest.check_raises "events validates"
    (Invalid_argument "Schedule.events: phase 0 (p): ticks must be positive")
    (fun () ->
      ignore
        (Schedule.events ~seed:1
           [ Schedule.phase ~label:"p" ~ticks:0 ~rate:(Schedule.Const 1.0) [ t ] ]))

(* ---------------- event lowering ---------------- *)

(* The golden schedule: a ramp, a pause, and a burst phase with an
   exp-share tenant — one of everything the grammar can say. *)
let golden_spec =
  "# golden mixed schedule\n\
   phase warm ticks=4 rate=ramp:2:6 tenants=health:0.7,ft:0.3\n\
   pause cool ticks=2\n\
   phase hot ticks=3 rate=6 burst=3:1:2 tenants=ft@spike:exp:0.5:2.0,health\n"

let golden_schedule () =
  [
    Schedule.phase ~label:"warm" ~ticks:4
      ~rate:(Schedule.Linear { from_ = 2.0; to_ = 6.0 })
      [
        Schedule.tenant ~share:(Schedule.Const 0.7) "health";
        Schedule.tenant ~share:(Schedule.Const 0.3) "ft";
      ];
    Schedule.pause ~label:"cool" ~ticks:2;
    Schedule.phase ~label:"hot" ~ticks:3 ~rate:(Schedule.Const 6.0)
      ~burst:{ Schedule.period = 3; width = 1; gain = 2.0 }
      [
        Schedule.tenant ~name:"spike"
          ~share:(Schedule.Exp { from_ = 0.5; to_ = 2.0 })
          "ft";
        Schedule.tenant "health";
      ];
  ]

(* Hard literal, on purpose: re-derive via
   `halo traffic events --spec <golden> --seed 1` only when a change to
   the event-lowering semantics is intended. *)
let golden_digest = "1cf18d60798012d3"

let events_golden_pinned () =
  let evs = Schedule.events ~seed:1 (golden_schedule ()) in
  checki "event count" 40 (List.length evs);
  checks "digest pinned" golden_digest (Schedule.digest evs)

let events_deterministic () =
  let s = golden_schedule () in
  checks "same seed, same stream"
    (Schedule.digest (Schedule.events ~seed:1 s))
    (Schedule.digest (Schedule.events ~seed:1 s));
  checkb "seed only moves per-job seeds" false
    (Schedule.digest (Schedule.events ~seed:1 s)
    = Schedule.digest (Schedule.events ~seed:2 s))

let shape_of evs =
  List.map
    (fun (e : Schedule.event) -> (e.Schedule.ev_tick, e.Schedule.ev_tenant))
    evs

let shape_is_seed_independent () =
  (* Rate lowering and apportionment are error-diffused, never drawn from
     the RNG: two seeds must emit the same (tick, tenant) sequence. *)
  let s = golden_schedule () in
  Alcotest.(check (list (pair int string)))
    "identical (tick, tenant) sequence"
    (shape_of (Schedule.events ~seed:1 s))
    (shape_of (Schedule.events ~seed:99 s))

let integral_rate_is_exact () =
  (* A constant integral rate lowers to exactly rate * ticks jobs — the
     invariant the serve simulator's jobs_total accounting relies on. *)
  let s =
    [
      Schedule.phase ~label:"p" ~ticks:7 ~rate:(Schedule.Const 5.0)
        [ Schedule.tenant "health"; Schedule.tenant "ft" ];
    ]
  in
  checki "rate * ticks" 35 (List.length (Schedule.events ~seed:1 s));
  checki "pause emits nothing" 0
    (List.length (Schedule.events ~seed:1 [ Schedule.pause ~label:"z" ~ticks:9 ]))

let tenant_events evs name =
  List.filter_map
    (fun (e : Schedule.event) ->
      if e.Schedule.ev_tenant = name then
        Some (e.Schedule.ev_tick, e.Schedule.ev_seed)
      else None)
    evs

let tenant_reorder_invariant () =
  (* Reversing the tenant declaration order must not change any tenant's
     own subsequence — counts or seeds. *)
  let tenants =
    [
      Schedule.tenant ~name:"a" ~share:(Schedule.Const 3.0) "health";
      Schedule.tenant ~name:"b" ~share:(Schedule.Const 1.0) "ft";
      Schedule.tenant ~name:"c" ~share:(Schedule.Const 2.0) "leela";
    ]
  in
  let sched ts =
    [
      Schedule.phase ~label:"p" ~ticks:5
        ~rate:(Schedule.Linear { from_ = 3.0; to_ = 8.0 })
        ts;
    ]
  in
  let fwd = Schedule.events ~seed:4 (sched tenants)
  and rev = Schedule.events ~seed:4 (sched (List.rev tenants)) in
  List.iter
    (fun n ->
      Alcotest.(check (list (pair int int)))
        (n ^ "'s substream survives reordering") (tenant_events fwd n)
        (tenant_events rev n))
    [ "a"; "b"; "c" ]

(* qcheck: the same property under random shares, rates and permutations. *)
let prop_tenant_reorder =
  let pool = [| "health"; "ft"; "analyzer"; "art"; "leela" |] in
  QCheck2.Test.make
    ~name:"schedule: tenant substreams invariant under tenant reordering"
    ~count:60
    QCheck2.Gen.(
      quad (int_range 1 6) (int_range 0 1000) (int_range 1 9)
        (list_size (int_range 2 5) (int_range 1 9)))
    (fun (ticks, seed, rate, shares) ->
      let tenants =
        List.mapi
          (fun i s ->
            Schedule.tenant
              ~name:(Printf.sprintf "t%d" i)
              ~share:(Schedule.Const (float_of_int s))
              pool.(i mod Array.length pool))
          shares
      in
      let sched ts =
        [
          Schedule.phase ~label:"p" ~ticks
            ~rate:(Schedule.Const (float_of_int rate))
            ts;
        ]
      in
      let fwd = Schedule.events ~seed (sched tenants)
      and rev = Schedule.events ~seed (sched (List.rev tenants)) in
      List.for_all
        (fun (t : Schedule.tenant) ->
          tenant_events fwd t.Schedule.t_name
          = tenant_events rev t.Schedule.t_name)
        tenants)

(* ---------------- mix-spec text format ---------------- *)

let spec_roundtrip () =
  let s = golden_schedule () in
  match Schedule.of_spec (Schedule.to_spec s) with
  | Error e -> Alcotest.fail ("to_spec output did not re-parse: " ^ e)
  | Ok s' ->
      checks "round-trip preserves the event stream" golden_digest
        (Schedule.digest (Schedule.events ~seed:1 s'))

let spec_parses_golden () =
  match Schedule.of_spec golden_spec with
  | Error e -> Alcotest.fail e
  | Ok s ->
      checki "three phases" 3 (List.length s);
      checki "nine ticks" 9 (Schedule.total_ticks s);
      checks "spec and combinators agree" golden_digest
        (Schedule.digest (Schedule.events ~seed:1 s))

let spec_error spec =
  match Schedule.of_spec spec with
  | Ok _ -> Alcotest.fail ("accepted bad spec: " ^ spec)
  | Error e -> e

let spec_errors_located () =
  checkb "unknown directive carries its line" true
    (contains (spec_error "phase p ticks=2 rate=1 tenants=health\njunk here") "line 2");
  checkb "bad curve reported" true (contains (spec_error "phase p ticks=2 rate=wat tenants=health") "line 1");
  checkb "missing key reported" true (contains (spec_error "phase p rate=1 tenants=health") "line 1");
  checkb "validation failures surface" true
    (contains (spec_error "phase p ticks=2 rate=1 tenants=nosuch") "nosuch");
  checkb "validation failures carry their line" true
    (contains (spec_error "pause q ticks=1\nphase p ticks=2 rate=1 tenants=nosuch") "line 2")

(* A rate that lowers to no integer count must not pass as an empty
   stream. *)
let spec_rejects_unlowerable_rates () =
  List.iter
    (fun rate ->
      let spec = "phase p ticks=2 rate=" ^ rate ^ " tenants=health" in
      checkb ("rate=" ^ rate ^ " rejected on its line") true
        (contains (spec_error spec) "line 1"))
    [ "nan"; "inf"; "1e30" ];
  checkb "burst peak beyond 2^53 rejected" true
    (contains (spec_error "phase p ticks=2 rate=1e10 burst=2:1:1e10 tenants=health") "line 1")

(* ---------------- drifting shape ---------------- *)

let names_of (p : Schedule.phase) =
  List.map (fun (t : Schedule.tenant) -> t.Schedule.t_name) p.Schedule.p_tenants

let drifting_rotation_is_error_diffused () =
  let ws = [ "health"; "ft"; "analyzer" ] in
  (match Schedule.drifting ~workloads:ws ~phases:3 ~drift:0.0 () with
  | p0 :: rest ->
      List.iter
        (fun p ->
          Alcotest.(check (list string))
            "drift 0 never rotates" (names_of p0) (names_of p))
        rest
  | [] -> Alcotest.fail "no phases");
  (match Schedule.drifting ~workloads:ws ~phases:2 ~drift:1.0 () with
  | [ p0; p1 ] ->
      Alcotest.(check (list string)) "epoch 0 unrotated" ws (names_of p0);
      Alcotest.(check (list string))
        "drift 1 rotates once per epoch"
        [ "ft"; "analyzer"; "health" ] (names_of p1)
  | _ -> Alcotest.fail "expected two phases");
  (* drift 0.5 crosses an integer boundary every second epoch. *)
  (match Schedule.drifting ~workloads:ws ~phases:3 ~drift:0.5 () with
  | [ p0; p1; p2 ] ->
      Alcotest.(check (list string))
        "no rotation before the carry crosses 1" (names_of p0) (names_of p1);
      checkb "rotation lands on the crossing" false (names_of p1 = names_of p2)
  | _ -> Alcotest.fail "expected three phases");
  (* A rotation by the ranking's length is the identity, and a rotation
     costs one pass however many places it moves. *)
  let digest drift =
    Schedule.digest
      (Schedule.events ~seed:1
         (Schedule.drifting ~ticks_per_phase:2 ~rate:3.0 ~phases:6 ~drift ()))
  in
  List.iter
    (fun d ->
      checks (Printf.sprintf "drift %g + 11 over the registry" d) (digest d)
        (digest (d +. 11.0)))
    [ 0.0; 0.25; 0.5; 1.0 ];
  checki "drift 2^52 lowers" 16 (String.length (digest 0x1p52));
  List.iter
    (fun drift ->
      checkb (Printf.sprintf "drift %g rejected" drift) true
        (match Schedule.drifting ~phases:2 ~drift () with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ -1.0; Float.nan; Float.infinity; 0x1p54 ]

(* ---------------- mix executor ---------------- *)

let mix_workloads = [ "health"; "ft"; "analyzer"; "art"; "leela" ]

let mix_sched drift =
  Schedule.drifting ~workloads:mix_workloads ~phases:3 ~ticks_per_phase:2
    ~rate:3.0 ~drift ()

let mix_config every =
  { Traffic_mix.default_config with Traffic_mix.reprofile_every = every }

let mix_executor_invariants () =
  let sched = mix_sched 1.0 in
  let evs = Schedule.events ~seed:3 sched in
  let r = Traffic_mix.run ~config:(mix_config 2) ~seed:3 sched in
  checki "one job per event" (List.length evs) r.Traffic_mix.jobs;
  checks "schedule digest carried" (Schedule.digest evs)
    r.Traffic_mix.schedule_digest;
  checkb "coverage bounded" true
    (r.Traffic_mix.coverage >= 0.0 && r.Traffic_mix.coverage <= 1.0);
  checkb "covered within jobs" true
    (r.Traffic_mix.covered_jobs <= r.Traffic_mix.jobs);
  checkb "replanned on cadence" true (r.Traffic_mix.replans > 1);
  checkb "profiler invoked" true (r.Traffic_mix.profile_runs > 0);
  checkb "net cycles charge profiling" true
    (r.Traffic_mix.net_cycles
    >= r.Traffic_mix.cycles +. float_of_int r.Traffic_mix.profile_accesses);
  checki "tenant stats partition the jobs" r.Traffic_mix.jobs
    (List.fold_left
       (fun a (t : Traffic_mix.tenant_stats) -> a + t.Traffic_mix.ts_jobs)
       0 r.Traffic_mix.tenants);
  checki "phase stats partition the jobs" r.Traffic_mix.jobs
    (List.fold_left
       (fun a (p : Traffic_mix.phase_stats) -> a + p.Traffic_mix.ph_jobs)
       0 r.Traffic_mix.phases)

let mix_executor_deterministic () =
  let sched = mix_sched 1.0 in
  let a = Traffic_mix.run ~config:(mix_config 2) ~seed:3 sched in
  let b = Traffic_mix.run ~config:(mix_config 2) ~seed:3 sched in
  checks "execution digest reproducible" a.Traffic_mix.exec_digest
    b.Traffic_mix.exec_digest;
  checks "full report reproducible"
    (Json.to_string (Traffic_mix.report_to_json a))
    (Json.to_string (Traffic_mix.report_to_json b))

(* Recorded before the cache simulator could run on a helper domain: the
   shared-heap execution, per-job miss deltas included, must not move
   with where the hierarchy runs. The hierarchy gets a helper when a core
   is spare, which the stream's wait-time metric shows; holding every
   spare core keeps it inline. *)
let mix_golden_digest = "004b840a0d85c7c8"

let mix_exec_digest_pinned () =
  let run () =
    let obs = Obs.create () in
    let r = Traffic_mix.run ~obs ~config:(mix_config 2) ~seed:3 (mix_sched 1.0) in
    let helped =
      List.mem_assoc "cache.stream.producer_wait_s"
        (Metrics.snapshot (Obs.metrics obs))
    in
    (r.Traffic_mix.exec_digest, helped)
  in
  let spare = Par.spare_cores () in
  let digest, helped = run () in
  checks "exec digest" mix_golden_digest digest;
  checkb "a helper iff a core is spare" (spare >= 1) helped;
  let held = max 0 spare in
  ignore (Par.reserve held : int);
  Fun.protect
    ~finally:(fun () -> Par.release held)
    (fun () ->
      let digest, helped = run () in
      checks "exec digest inline" mix_golden_digest digest;
      checkb "no helper" false helped)

(* The model charges a profile at every adoption, but a workload dropped
   from the hot set and adopted again reuses its plan: tenant-mix's shape
   adopts 6 programs 7 times at seed 1. *)
let mix_readoption_profiles_once () =
  let sched = Schedule.drifting ~phases:8 ~ticks_per_phase:2 ~rate:6.0 ~drift:0.5 () in
  let config = { (mix_config 2) with Traffic_mix.plan_budget = 3 } in
  let obs = Obs.create () in
  let r = Traffic_mix.run ~obs ~config ~seed:1 sched in
  let profiles =
    List.length
      (List.filter (fun (sp : Obs.span) -> sp.Obs.name = "profile") (Obs.spans obs))
  in
  checki "adoptions charged" 7 r.Traffic_mix.profile_runs;
  checki "one profile per adopted program" 6 profiles;
  let supplied = ref [] in
  let plan_for w =
    supplied := w.Workload.name :: !supplied;
    Runner.plan_halo w
  in
  let r' = Traffic_mix.run ~config ~plan_for ~seed:1 sched in
  checki "the supplier answers every adoption" 7 (List.length !supplied);
  checki "for the adopted programs" 6
    (List.length (List.sort_uniq compare !supplied));
  checks "supplied plans execute identically"
    (Json.to_string (Traffic_mix.report_to_json r))
    (Json.to_string (Traffic_mix.report_to_json r'))

(* The drift figure's nine cells (drift rates 0, 0.5 and 1 by cadences
   0, 1 and 2 at its traffic shape and seed): the workloads their hot sets
   name are the ones the executor asks [plan_for] for, which is what lets
   the figure grid plan only those. *)
let hot_sets_name_the_adopted () =
  let plans = Hashtbl.create 8 in
  let adopted = ref [] in
  let plan_for w =
    let name = w.Workload.name in
    adopted := name :: !adopted;
    match Hashtbl.find_opt plans name with
    | Some p -> p
    | None ->
        let p = Runner.plan_halo w in
        Hashtbl.add plans name p;
        p
  in
  List.iter
    (fun drift ->
      List.iter
        (fun cadence ->
          let config = mix_config cadence in
          let sched = Schedule.drifting ~ticks_per_phase:2 ~rate:3.0 ~phases:4 ~drift () in
          adopted := [];
          ignore (Traffic_mix.run ~config ~plan_for ~seed:1 sched : Traffic_mix.report);
          Alcotest.(check (list string))
            (Printf.sprintf "drift %g, cadence %d" drift cadence)
            (List.sort_uniq compare !adopted)
            (List.sort_uniq compare
               (List.concat_map snd (Traffic_mix.hot_sets ~config ~seed:1 sched))))
        [ 0; 1; 2 ])
    [ 0.0; 0.5; 1.0 ];
  Alcotest.(check (list string))
    "the nine cells adopt five programs"
    [ "ammp"; "analyzer"; "art"; "ft"; "health" ]
    (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) plans []))

let mix_reprofiling_recovers_coverage () =
  (* Under heavy drift the stale plan's covered set points at yesterday's
     traffic; re-planning on a cadence must recover coverage. *)
  let sched = mix_sched 1.0 in
  let stale = Traffic_mix.run ~config:(mix_config 0) ~seed:3 sched in
  let fresh = Traffic_mix.run ~config:(mix_config 2) ~seed:3 sched in
  checki "stale plans exactly once" 1 stale.Traffic_mix.replans;
  checkb "cadence recovers coverage" true
    (fresh.Traffic_mix.coverage > stale.Traffic_mix.coverage)

(* Schedule.of_spec's contract on hostile text: [Ok] or [Error], never
   another exception. Seeds: a drifting schedule's spec and the grammar
   example in schedule.mli. *)
let spec_seeds =
  [
    Schedule.to_spec (Schedule.drifting ~ticks_per_phase:2 ~phases:4 ~drift:0.5 ());
    "# grammar example\n\
     phase warm  ticks=20 rate=ramp:2:10 tenants=health:0.7,ft:0.3\n\
     phase spike ticks=10 rate=10 burst=5:2:3 tenants=health@hot:ramp:0.7:0.2,ft\n\
     pause cool  ticks=4\n";
  ]

let prop_spec_mutation =
  QCheck2.Test.make ~name:"spec: mix-specs survive byte mutations" ~count:400
    ~print:(fun (k, muts) ->
      Printf.sprintf "seed %d: %s" k (String.concat " " (List.map Byte_mutation.show muts)))
    QCheck2.Gen.(
      pair (int_bound (List.length spec_seeds - 1)) (list_size (int_range 1 3) Byte_mutation.gen))
    (fun (k, muts) ->
      match Schedule.of_spec (List.fold_left Byte_mutation.mutate (List.nth spec_seeds k) muts) with
      | Ok _ | Error _ -> true
      | exception e -> QCheck2.Test.fail_reportf "of_spec raised %s" (Printexc.to_string e))

let qsuite = List.map QCheck_alcotest.to_alcotest [ prop_tenant_reorder ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "schedule: curve evaluation" curve_eval;
    tc "schedule: validation rejects bad shapes" validate_rejects;
    tc "schedule: golden digest pinned" events_golden_pinned;
    tc "schedule: events deterministic per seed" events_deterministic;
    tc "schedule: shape is seed-independent" shape_is_seed_independent;
    tc "schedule: integral rates lower exactly" integral_rate_is_exact;
    tc "schedule: tenant reordering preserves substreams" tenant_reorder_invariant;
    tc "spec: golden round-trips through to_spec" spec_roundtrip;
    tc "spec: text and combinators agree" spec_parses_golden;
    tc "spec: errors carry line numbers" spec_errors_located;
    tc "spec: non-finite or huge rates rejected" spec_rejects_unlowerable_rates;
    tc "drifting: rotation is error-diffused" drifting_rotation_is_error_diffused;
    tc "mix: executor invariants" mix_executor_invariants;
    tc "mix: execution digest reproducible" mix_executor_deterministic;
    tc "mix: re-profiling recovers coverage under drift" mix_reprofiling_recovers_coverage;
    tc "mix: a re-adopted workload reuses its plan" mix_readoption_profiles_once;
    tc "mix: hot sets name the adopted workloads" hot_sets_name_the_adopted;
  ]
  @ qsuite
  @ [ tc "mix: execution digest pinned" mix_exec_digest_pinned ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_spec_mutation ]
