type config = {
  seeds : int;
  seed_base : int;
  ref_scale : int;
  time_budget : float option;
  corpus_dir : string option;
  shrink_steps : int;
  extra : (string * (Vmem.t -> Alloc_iface.t)) list;
  plan_source : Pipeline.plan_source option;
  jobs : int;
  obs : Obs.t option;
  log : (string -> unit) option;
}

let default =
  {
    seeds = 200;
    seed_base = 1;
    ref_scale = 3;
    time_budget = None;
    corpus_dir = None;
    shrink_steps = 2000;
    extra = [];
    plan_source = None;
    jobs = 1;
    obs = None;
    log = None;
  }

type case_report = {
  seed : int;
  failures : Fuzz_oracle.failure list;
  original_stmts : int;
  shrunk_stmts : int;
  shrunk_trace : int array;
  shrink_steps_used : int;
  shrunk_program : string;
  saved_to : string option;
}

type summary = {
  cases : int;
  violations : int;
  failing_seeds : int list;
  reports : case_report list;
  allocs : int;
  accesses : int;
  elapsed_s : float;
}

let report_json r =
  Json.Obj
    [
      ("seed", Json.Int r.seed);
      ( "failures",
        Json.List
          (List.map
             (fun (f : Fuzz_oracle.failure) ->
               Json.Obj
                 [
                   ("config", Json.String f.Fuzz_oracle.config);
                   ("reason", Json.String f.Fuzz_oracle.reason);
                 ])
             r.failures) );
      ("original_stmts", Json.Int r.original_stmts);
      ("shrunk_stmts", Json.Int r.shrunk_stmts);
      ("shrink_steps", Json.Int r.shrink_steps_used);
      ( "shrunk_trace",
        Json.List (Array.to_list (Array.map (fun v -> Json.Int v) r.shrunk_trace))
      );
      ("shrunk_program", Json.String r.shrunk_program);
    ]

let save_corpus ~dir r =
  (try Unix.mkdir dir 0o755
   with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat dir (Printf.sprintf "seed_%d.json" r.seed) in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Json.to_channel oc (report_json r));
  path

let replay ?(ref_scale = 3) ?(extra = []) seed =
  let case = Fuzz_gen.generate ~ref_scale ~seed () in
  (case, Fuzz_oracle.run_case ~extra case)

(* ------------------------------------------------------------------ *)
(* Semantic digest corpus: a fixed seed set's oracle observables,      *)
(* recorded to JSON so that interpreter/profiler changes can be        *)
(* checked bit-for-bit against previously recorded behaviour.          *)
(* ------------------------------------------------------------------ *)

type digest_record = {
  d_seed : int;
  d_failures : int;
  d_ret : (int, string) Stdlib.result;
  d_dig : Fuzz_observe.digest;
  d_stats : Fuzz_oracle.stats;
}

let digest_sweep ?(ref_scale = 3) ?(seed_base = 1) ~seeds () =
  List.init seeds (fun k ->
      let seed = seed_base + k in
      let case = Fuzz_gen.generate ~ref_scale ~seed () in
      let r = Fuzz_oracle.run_case case in
      {
        d_seed = seed;
        d_failures = List.length r.Fuzz_oracle.failures;
        d_ret = r.Fuzz_oracle.ref_ret;
        d_dig = r.Fuzz_oracle.ref_dig;
        d_stats = r.Fuzz_oracle.stats;
      })

let digest_record_json r =
  let open Json in
  let dig = r.d_dig in
  let stats = r.d_stats in
  Obj
    ([ ("seed", Int r.d_seed); ("failures", Int r.d_failures) ]
    @ (match r.d_ret with
      | Ok v -> [ ("ret", Int v) ]
      | Error msg -> [ ("crash", String msg) ])
    @ [
        ("allocs", Int dig.Fuzz_observe.allocs);
        ("frees", Int dig.Fuzz_observe.frees);
        ("accesses", Int dig.Fuzz_observe.accesses);
        ("site_digest", Int dig.Fuzz_observe.site_digest);
        ("access_digest", Int dig.Fuzz_observe.access_digest);
        ("free_digest", Int dig.Fuzz_observe.free_digest);
        ("configs", Int stats.Fuzz_oracle.configs);
        ("oracle_allocs", Int stats.Fuzz_oracle.allocs);
        ("oracle_accesses", Int stats.Fuzz_oracle.accesses);
        ("groups", Int stats.Fuzz_oracle.groups);
        ("monitored", Int stats.Fuzz_oracle.monitored);
        ("contexts", Int stats.Fuzz_oracle.contexts);
      ])

let digests_json ~ref_scale records =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("ref_scale", Json.Int ref_scale);
      ("cases", Json.List (List.map digest_record_json records));
    ]

let digest_record_of_json j =
  let open Json in
  let field name =
    match j with
    | Obj fields -> List.assoc_opt name fields
    | _ -> None
  in
  let int_field name =
    match field name with
    | Some (Int v) -> Ok v
    | _ -> Error (Printf.sprintf "digest corpus: missing int field %S" name)
  in
  let ( let* ) = Result.bind in
  let* seed = int_field "seed" in
  let* failures = int_field "failures" in
  let* ret =
    match (field "ret", field "crash") with
    | Some (Int v), _ -> Ok (Ok v)
    | _, Some (String msg) -> Ok (Error msg)
    | _ -> Error (Printf.sprintf "seed %d: missing ret/crash" seed)
  in
  let* allocs = int_field "allocs" in
  let* frees = int_field "frees" in
  let* accesses = int_field "accesses" in
  let* site_digest = int_field "site_digest" in
  let* access_digest = int_field "access_digest" in
  let* free_digest = int_field "free_digest" in
  let* configs = int_field "configs" in
  let* oracle_allocs = int_field "oracle_allocs" in
  let* oracle_accesses = int_field "oracle_accesses" in
  let* groups = int_field "groups" in
  let* monitored = int_field "monitored" in
  let* contexts = int_field "contexts" in
  Ok
    {
      d_seed = seed;
      d_failures = failures;
      d_ret = ret;
      d_dig =
        {
          Fuzz_observe.allocs;
          frees;
          accesses;
          site_digest;
          access_digest;
          free_digest;
        };
      d_stats =
        {
          Fuzz_oracle.configs;
          allocs = oracle_allocs;
          accesses = oracle_accesses;
          groups;
          monitored;
          contexts;
        };
    }

let digests_of_json j =
  let open Json in
  match j with
  | Obj fields -> (
      match
        (List.assoc_opt "ref_scale" fields, List.assoc_opt "cases" fields)
      with
      | Some (Int ref_scale), Some (List cases) ->
          let rec go acc = function
            | [] -> Ok (ref_scale, List.rev acc)
            | c :: rest -> (
                match digest_record_of_json c with
                | Ok r -> go (r :: acc) rest
                | Error e -> Error e)
          in
          go [] cases
      | _ -> Error "digest corpus: missing ref_scale/cases")
  | _ -> Error "digest corpus: not a JSON object"

let save_digests ~path ~ref_scale records =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string ~pretty:true (digests_json ~ref_scale records));
      output_char oc '\n')

let load_digests ~path =
  match
    Json.of_string (In_channel.with_open_bin path In_channel.input_all)
  with
  | Error e -> Error e
  | Ok j -> digests_of_json j

(* Field-by-field mismatch report, so a semantic regression names the
   exact observable that moved rather than just "digest differs". *)
let describe_record_mismatch ~expected ~got =
  let ints =
    [
      ("failures", expected.d_failures, got.d_failures);
      ("allocs", expected.d_dig.Fuzz_observe.allocs, got.d_dig.Fuzz_observe.allocs);
      ("frees", expected.d_dig.Fuzz_observe.frees, got.d_dig.Fuzz_observe.frees);
      ( "accesses",
        expected.d_dig.Fuzz_observe.accesses,
        got.d_dig.Fuzz_observe.accesses );
      ( "site_digest",
        expected.d_dig.Fuzz_observe.site_digest,
        got.d_dig.Fuzz_observe.site_digest );
      ( "access_digest",
        expected.d_dig.Fuzz_observe.access_digest,
        got.d_dig.Fuzz_observe.access_digest );
      ( "free_digest",
        expected.d_dig.Fuzz_observe.free_digest,
        got.d_dig.Fuzz_observe.free_digest );
      ("configs", expected.d_stats.Fuzz_oracle.configs, got.d_stats.Fuzz_oracle.configs);
      ( "oracle_allocs",
        expected.d_stats.Fuzz_oracle.allocs,
        got.d_stats.Fuzz_oracle.allocs );
      ( "oracle_accesses",
        expected.d_stats.Fuzz_oracle.accesses,
        got.d_stats.Fuzz_oracle.accesses );
      ("groups", expected.d_stats.Fuzz_oracle.groups, got.d_stats.Fuzz_oracle.groups);
      ( "monitored",
        expected.d_stats.Fuzz_oracle.monitored,
        got.d_stats.Fuzz_oracle.monitored );
      ( "contexts",
        expected.d_stats.Fuzz_oracle.contexts,
        got.d_stats.Fuzz_oracle.contexts );
    ]
  in
  let ret_part =
    if expected.d_ret = got.d_ret then []
    else
      let show = function
        | Ok v -> string_of_int v
        | Error msg -> "crash: " ^ msg
      in
      [ Printf.sprintf "ret: expected %s, got %s" (show expected.d_ret) (show got.d_ret) ]
  in
  ret_part
  @ List.filter_map
      (fun (name, e, g) ->
        if e = g then None
        else Some (Printf.sprintf "%s: expected %d, got %d" name e g))
      ints

let check_digests ~expected got =
  let by_seed = List.map (fun r -> (r.d_seed, r)) got in
  List.concat_map
    (fun exp ->
      match List.assoc_opt exp.d_seed by_seed with
      | None -> [ Printf.sprintf "seed %d: missing from re-run" exp.d_seed ]
      | Some g ->
          List.map
            (fun m -> Printf.sprintf "seed %d: %s" exp.d_seed m)
            (describe_record_mismatch ~expected:exp ~got:g))
    expected

let logf cfg fmt =
  Printf.ksprintf (fun s -> match cfg.log with Some f -> f s | None -> ()) fmt

let run cfg =
  let t0 = Unix.gettimeofday () in
  let over_budget () =
    match cfg.time_budget with
    | None -> false
    | Some b -> Unix.gettimeofday () -. t0 >= b
  in
  (* One task per campaign seed, fanned out over a Par pool. Every case
     derives all of its decisions from its own seed (Fuzz_gen builds a
     private Dsource/Rng per case), so cases share no state and verdicts
     are identical at any worker count. The budget is checked when a
     worker picks the task up, matching the sequential loop's "stop
     starting new cases" semantics. *)
  let run_case wobs s =
    Obs.span wobs "fuzz.case" (fun () ->
        Obs.count wobs "fuzz.cases" 1;
        let case = Fuzz_gen.generate ~ref_scale:cfg.ref_scale ~seed:s () in
        let result =
          Fuzz_oracle.run_case ~extra:cfg.extra ?plan_source:cfg.plan_source
            case
        in
        let report =
          match result.Fuzz_oracle.failures with
          | [] -> None
          | fs ->
              Obs.count wobs "fuzz.oracle.violations" (List.length fs);
              (* Shrink while preserving *some* oracle failure — the exact
                 reason may shift as the program shrinks, which is fine:
                 any failing case is a bug to report. *)
              let failing c =
                (Fuzz_oracle.run_case ~extra:cfg.extra c).Fuzz_oracle.failures
                <> []
              in
              let sh =
                Fuzz_shrink.shrink ~max_steps:cfg.shrink_steps ~failing case
              in
              Obs.count wobs "fuzz.shrink.steps" sh.Fuzz_shrink.steps;
              let small = sh.Fuzz_shrink.case in
              Some
                {
                  seed = s;
                  failures = fs;
                  original_stmts = Fuzz_gen.stmt_count case.Fuzz_gen.ref_;
                  shrunk_stmts = Fuzz_gen.stmt_count small.Fuzz_gen.ref_;
                  shrunk_trace = small.Fuzz_gen.trace;
                  shrink_steps_used = sh.Fuzz_shrink.steps;
                  shrunk_program = Ir_print.program_to_string small.Fuzz_gen.ref_;
                  saved_to = None;
                }
        in
        (result.Fuzz_oracle.stats, report))
  in
  let seed_list = List.init cfg.seeds (fun k -> cfg.seed_base + k) in
  let outcomes =
    Par.map_obs ?obs:cfg.obs ~name:"fuzz" ~jobs:cfg.jobs
      (fun wobs s -> if over_budget () then None else Some (run_case wobs s))
      seed_list
  in
  (* Single-writer epilogue on the calling domain, in seed order: corpus
     files, per-failure log lines, aggregate counts. This keeps campaign
     output byte-identical across worker counts and funnels all failures
     through one corpus writer. *)
  let cases = ref 0 in
  let violations = ref 0 in
  let allocs = ref 0 in
  let accesses = ref 0 in
  let reports = ref [] in
  List.iter2
    (fun s outcome ->
      match outcome with
      | None -> () (* budget ran out before this seed started *)
      | Some ((stats : Fuzz_oracle.stats), report) -> (
          incr cases;
          allocs := !allocs + stats.Fuzz_oracle.allocs;
          accesses := !accesses + stats.Fuzz_oracle.accesses;
          match report with
          | None -> ()
          | Some r ->
              violations := !violations + List.length r.failures;
              List.iter
                (fun (f : Fuzz_oracle.failure) ->
                  logf cfg "seed %d: [%s] %s" s f.Fuzz_oracle.config
                    f.Fuzz_oracle.reason)
                r.failures;
              let r =
                match cfg.corpus_dir with
                | None -> r
                | Some dir ->
                    let path = save_corpus ~dir r in
                    logf cfg "seed %d: saved %s" s path;
                    { r with saved_to = Some path }
              in
              logf cfg "seed %d: shrunk %d -> %d stmts in %d steps" s
                r.original_stmts r.shrunk_stmts r.shrink_steps_used;
              reports := r :: !reports))
    seed_list outcomes;
  let reports = List.rev !reports in
  {
    cases = !cases;
    violations = !violations;
    failing_seeds = List.map (fun r -> r.seed) reports;
    reports;
    allocs = !allocs;
    accesses = !accesses;
    elapsed_s = Unix.gettimeofday () -. t0;
  }
