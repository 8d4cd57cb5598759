(* Tests for halo_hds: SEQUITUR (classic examples, invariants and
   round-trip properties), hot-stream extraction, weighted set packing,
   and the comparator pipeline. *)

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let push_all t l = List.iter (Sequitur.push t) l
let expand_list t = Array.to_list (Sequitur.expand t)

(* ---------------- Sequitur ---------------- *)

let seq_empty () =
  let t = Sequitur.create () in
  checki "empty input" 0 (Sequitur.input_length t);
  Alcotest.check (Alcotest.list Alcotest.int) "empty expansion" [] (expand_list t)

let seq_roundtrip_simple () =
  let t = Sequitur.create () in
  let input = [ 1; 2; 3; 4; 5 ] in
  push_all t input;
  Alcotest.check (Alcotest.list Alcotest.int) "roundtrip" input (expand_list t)

let seq_classic_abcdbc () =
  (* "abcdbc" -> S = a A d A; A = b c *)
  let t = Sequitur.create () in
  push_all t [ 0; 1; 2; 3; 1; 2 ];
  Alcotest.check (Alcotest.list Alcotest.int) "roundtrip" [ 0; 1; 2; 3; 1; 2 ]
    (expand_list t);
  checki "one auxiliary rule" 2 (Sequitur.rule_count t);
  checkb "invariants" true (Sequitur.check_invariants t = Ok ())

let seq_hierarchy () =
  (* abcabdabcabd: rule for "ab", rule for abc-abd sequence, etc. *)
  let t = Sequitur.create () in
  let input = [ 1; 2; 3; 1; 2; 4; 1; 2; 3; 1; 2; 4 ] in
  push_all t input;
  Alcotest.check (Alcotest.list Alcotest.int) "roundtrip" input (expand_list t);
  checkb "invariants" true (Sequitur.check_invariants t = Ok ());
  (* The half-input rule exists with two uses. *)
  let rules = Sequitur.rules t in
  checkb "found period rule" true
    (List.exists
       (fun (r : Sequitur.rule_info) ->
         r.Sequitur.uses = 2 && Array.to_list r.Sequitur.expansion = [ 1; 2; 3; 1; 2; 4 ])
       rules)

let seq_overlapping_chain () =
  (* "aaa" must not loop or corrupt: overlapping digram is left alone. *)
  let t = Sequitur.create () in
  push_all t [ 7; 7; 7 ];
  Alcotest.check (Alcotest.list Alcotest.int) "roundtrip" [ 7; 7; 7 ] (expand_list t);
  checkb "invariants" true (Sequitur.check_invariants t = Ok ())

let seq_four_identical () =
  (* "aaaa" -> S = A A; A = a a *)
  let t = Sequitur.create () in
  push_all t [ 7; 7; 7; 7 ];
  Alcotest.check (Alcotest.list Alcotest.int) "roundtrip" [ 7; 7; 7; 7 ]
    (expand_list t);
  checki "rule formed" 2 (Sequitur.rule_count t);
  checkb "invariants" true (Sequitur.check_invariants t = Ok ())

let seq_chain_regression () =
  (* The shrunk counterexample that once broke digram indexing on
     equal-symbol chains. *)
  let t = Sequitur.create () in
  let input = [ 4; 1; 1; 1; 4; 1; 0; 1; 1 ] in
  push_all t input;
  Alcotest.check (Alcotest.list Alcotest.int) "roundtrip" input (expand_list t);
  checkb "invariants" true (Sequitur.check_invariants t = Ok ())

let seq_chain_regression2 () =
  let t = Sequitur.create () in
  let input = [ 8; 8; 8; 0; 8; 8; 8; 0; 8; 0; 8; 8 ] in
  push_all t input;
  Alcotest.check (Alcotest.list Alcotest.int) "roundtrip" input (expand_list t);
  checkb "invariants" true (Sequitur.check_invariants t = Ok ())

let seq_uses_accounting () =
  let t = Sequitur.create () in
  (* 50 repetitions of a period-4 pattern *)
  for _ = 1 to 50 do
    push_all t [ 1; 2; 3; 4 ]
  done;
  let rules = Sequitur.rules t in
  (* heat conservation: the start rule accounts for everything *)
  (match rules with
  | start :: _ ->
      checki "start uses" 1 start.Sequitur.uses;
      checki "start expansion" 200 (Array.length start.Sequitur.expansion)
  | [] -> Alcotest.fail "no rules");
  checkb "some rule is used many times" true
    (List.exists (fun (r : Sequitur.rule_info) -> r.Sequitur.uses >= 25) rules)

let seq_rejects_negative () =
  let t = Sequitur.create () in
  checkb "raises" true
    (try
       Sequitur.push t (-1);
       false
     with Invalid_argument _ -> true)

let seq_push_allocates_nothing () =
  (* A warmed-up grammar keeps its arena, digram table and free list big
     enough for a periodic trace, so pushing allocates no minor words. *)
  let t = Sequitur.create () in
  let period = 97 in
  for i = 0 to 19_999 do
    Sequitur.push t (i mod period)
  done;
  let n = 100_000 in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    Sequitur.push t (i mod period)
  done;
  let words = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "%.0f minor words over %d pushes" words n)
    true
    (words < float_of_int n);
  checkb "invariants" true (Sequitur.check_invariants t = Ok ())

let prop_seq_roundtrip =
  QCheck2.Test.make ~name:"sequitur: expansion reproduces the input" ~count:300
    QCheck2.Gen.(list_size (int_range 0 400) (int_range 0 6))
    (fun input ->
      let t = Sequitur.create () in
      push_all t input;
      expand_list t = input)

let prop_seq_invariants =
  QCheck2.Test.make
    ~name:"sequitur: digram uniqueness and rule utility maintained" ~count:300
    QCheck2.Gen.(list_size (int_range 0 400) (int_range 0 4))
    (fun input ->
      let t = Sequitur.create () in
      push_all t input;
      Sequitur.check_invariants t = Ok ())

let prop_seq_binary_chains =
  QCheck2.Test.make ~name:"sequitur: binary alphabet (chain stress)" ~count:300
    QCheck2.Gen.(list_size (int_range 0 300) (int_range 0 1))
    (fun input ->
      let t = Sequitur.create () in
      push_all t input;
      expand_list t = input && Sequitur.check_invariants t = Ok ())

(* ---------------- Hot_streams ---------------- *)

let streams_periodic () =
  let t = Sequitur.create () in
  for _ = 1 to 50 do
    for k = 0 to 99 do
      Sequitur.push t k
    done
  done;
  let r = Hot_streams.extract t in
  checkb "streams found" true (r.Hot_streams.streams <> []);
  checkb "coverage reached" true
    (float_of_int r.Hot_streams.covered
    >= 0.9 *. float_of_int r.Hot_streams.trace_length);
  List.iter
    (fun (s : Hot_streams.stream) ->
      let n = Array.length s.Hot_streams.objects in
      checkb "length bounds" true (n >= 2 && n <= 20))
    r.Hot_streams.streams

let streams_chunking_covers_period () =
  (* One period-100 pattern: its chunks must jointly cover the period. *)
  let t = Sequitur.create () in
  for _ = 1 to 20 do
    for k = 0 to 99 do
      Sequitur.push t k
    done
  done;
  let r = Hot_streams.extract t in
  let covered = Hashtbl.create 128 in
  List.iter
    (fun (s : Hot_streams.stream) ->
      Array.iter (fun o -> Hashtbl.replace covered o ()) s.Hot_streams.objects)
    r.Hot_streams.streams;
  checki "all 100 objects appear in some stream" 100 (Hashtbl.length covered)

let streams_no_repeats_no_streams () =
  (* A trace with no repetition compresses to nothing: no rules, no
     streams. *)
  let t = Sequitur.create () in
  for k = 0 to 199 do
    Sequitur.push t k
  done;
  let r = Hot_streams.extract t in
  checki "no candidates" 0 r.Hot_streams.candidate_count;
  checkb "no streams" true (r.Hot_streams.streams = [])

let streams_empty_grammar () =
  let r = Hot_streams.extract (Sequitur.create ()) in
  checki "empty trace" 0 r.Hot_streams.trace_length;
  checkb "no streams" true (r.Hot_streams.streams = [])

(* ---------------- Set_packing ---------------- *)

let packing_disjoint () =
  let sel =
    Set_packing.pack
      [
        { Set_packing.sites = [ 1; 2 ]; weight = 100 };
        { Set_packing.sites = [ 2; 3 ]; weight = 90 };
        { Set_packing.sites = [ 3; 4 ]; weight = 80 };
      ]
  in
  (* {1,2} wins; {2,3} overlaps; {3,4} fits. *)
  Alcotest.check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "greedy disjoint" [ [ 1; 2 ]; [ 3; 4 ] ] sel

let packing_cardinality_scaling () =
  (* weight/sqrt(n): a big heavy set can lose to a small dense one. *)
  let sel =
    Set_packing.pack
      [
        { Set_packing.sites = [ 1; 2; 3; 4; 5; 6; 7; 8; 9 ]; weight = 120 };
        { Set_packing.sites = [ 1 ]; weight = 50 };
      ]
  in
  (* 120/3 = 40 < 50/1: the singleton wins and blocks the big set. *)
  Alcotest.check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "density order" [ [ 1 ] ] sel

let packing_merge_identical () =
  let candidates =
    [
      { Set_packing.sites = [ 1; 2 ]; weight = 30 };
      { Set_packing.sites = [ 2; 1 ]; weight = 30 };
      { Set_packing.sites = [ 1 ]; weight = 50 };
    ]
  in
  (* Without merging, {1} (50) beats each {1,2} (30): pairs split. *)
  Alcotest.check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "unmerged: singleton wins" [ [ 1 ] ]
    (Set_packing.pack candidates);
  (* Merged, {1,2} weighs 60 -> 60/1.41 = 42.4 < 50... still loses; raise
     weights to cross. *)
  let candidates2 =
    [
      { Set_packing.sites = [ 1; 2 ]; weight = 40 };
      { Set_packing.sites = [ 2; 1 ]; weight = 40 };
      { Set_packing.sites = [ 1 ]; weight = 50 };
    ]
  in
  Alcotest.check
    (Alcotest.list (Alcotest.list Alcotest.int))
    "merged: combined pair wins" [ [ 1; 2 ] ]
    (Set_packing.pack ~merge_identical:true candidates2)

let packing_ignores_empty () =
  checki "empty candidates ignored" 0
    (List.length (Set_packing.pack [ { Set_packing.sites = []; weight = 100 } ]))

let prop_packing_disjoint =
  QCheck2.Test.make ~name:"set packing: selected sets pairwise disjoint"
    ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 20)
        (pair (list_size (int_range 0 6) (int_range 0 10)) (int_range 1 100)))
    (fun raw ->
      let sel =
        Set_packing.pack
          (List.map (fun (sites, weight) -> { Set_packing.sites; weight }) raw)
      in
      let seen = Hashtbl.create 16 in
      List.for_all
        (fun set ->
          List.for_all
            (fun s ->
              if Hashtbl.mem seen s then false
              else begin
                Hashtbl.replace seen s ();
                true
              end)
            set)
        sel)

(* ---------------- Hds_pipeline (integration) ---------------- *)

let hds_identifies_direct_sites () =
  (* health: direct cell/patient sites -> at least one co-allocation pool
     containing more than one site. *)
  let w = Option.get (Workloads.find "health") in
  let plan = Hds_pipeline.plan (w.Workload.make Workload.Test) in
  checkb "pools formed" true (Array.length plan.Hds_pipeline.groups >= 1);
  checkb "a multi-site pool exists" true
    (Array.exists (fun sites -> List.length sites >= 2) plan.Hds_pipeline.groups)

let hds_blind_to_wrappers () =
  (* povray: every allocation shares pov_malloc's malloc site, so no pool
     can separate anything: at most one pool, keyed by that single site. *)
  let w = Option.get (Workloads.find "povray") in
  let plan = Hds_pipeline.plan (w.Workload.make Workload.Test) in
  let distinct_sites =
    Array.to_list plan.Hds_pipeline.groups |> List.concat |> List.sort_uniq compare
  in
  checkb "at most one identifiable site" true (List.length distinct_sites <= 1)

(* HDS observes a program through the profiler's front end, so its trace
   is the profiler's macro-access stream, access for access. *)
let hds_trace_is_profiler_stream () =
  List.iter
    (fun w ->
      let program = w.Workload.make Workload.Test in
      Alcotest.check Alcotest.int
        (w.Workload.name ^ " trace length")
        (Profiler.profile program).Profiler.total_accesses
        (Hds_pipeline.plan program).Hds_pipeline.trace_length)
    Workloads.all

(* Bad configs are rejected before the program is interpreted: this
   program's main takes a parameter, so interpreting it raises Interp's
   own error instead. *)
let unrunnable_program () =
  Ir.finalize ~main:"main" [ { Ir.fname = "main"; params = [ "x" ]; body = [] } ]

let plan_error config =
  match Hds_pipeline.plan ~config (unrunnable_program ()) with
  | _ -> "no error"
  | exception Invalid_argument msg -> msg

let from_interp msg = String.length msg >= 6 && String.sub msg 0 6 = "Interp"

let hds_good_config_reaches_interp () =
  checkb "a good config reaches the interpreter" true
    (from_interp (plan_error Hds_pipeline.default_config))

let bad_hds_configs =
  let streams = Hot_streams.default_config in
  List.map
    (fun (what, streams) -> (what, { Hds_pipeline.streams }))
    [
      ("min_elems < 1", { streams with min_elems = 0 });
      ("max_elems < min_elems", { streams with max_elems = 1 });
      ("coverage 0", { streams with coverage = 0.0 });
      ("coverage > 1", { streams with coverage = 1.5 });
      ("coverage NaN", { streams with coverage = Float.nan });
    ]

let hds_rejects_bad_config config () =
  let msg = plan_error config in
  checkb msg true (msg <> "no error" && not (from_interp msg))

let hds_classifier_uses_cur_site () =
  let plan =
    {
      Hds_pipeline.groups = [| [ 0x100; 0x200 ]; [ 0x300 ] |];
      stream_count = 0;
      selected_streams = 0;
      trace_length = 0;
      grammar_rules = 0;
      coverage = 0.0;
      candidates = [];
    }
  in
  let env = Exec_env.create () in
  let classify = Hds_pipeline.classifier plan ~env in
  env.Exec_env.cur_alloc_site <- 0x200;
  checkb "site in pool 0" true (classify ~size:32 = Some 0);
  env.Exec_env.cur_alloc_site <- 0x300;
  checkb "site in pool 1" true (classify ~size:32 = Some 1);
  env.Exec_env.cur_alloc_site <- 0x999;
  checkb "unknown site ungrouped" true (classify ~size:32 = None)

(* ---------------- Hds_pipeline golden digests ---------------- *)

(* One digest per workload of everything [Hds_pipeline.plan] returns at
   Test scale under the default config: the groups in selection order,
   the candidate and selected stream counts, the trace length, the
   grammar's rule count and the coverage (as an exact hex float). Hard
   literals, on purpose: a SEQUITUR, hot-stream or set-packing change
   that alters any plan flips a digest here. Re-record only when HDS
   semantics are meant to change. *)
let hds_plan_digest (p : Hds_pipeline.plan) =
  let b = Buffer.create 1024 in
  Array.iter
    (fun sites ->
      Buffer.add_char b 'g';
      List.iter (fun s -> Printf.bprintf b "%d," s) sites;
      Buffer.add_char b ';')
    p.Hds_pipeline.groups;
  Printf.bprintf b "c%d;s%d;t%d;r%d;v%h" p.Hds_pipeline.stream_count
    p.Hds_pipeline.selected_streams p.Hds_pipeline.trace_length
    p.Hds_pipeline.grammar_rules p.Hds_pipeline.coverage;
  String.sub (Digest.to_hex (Digest.string (Buffer.contents b))) 0 16

let hds_golden =
  [
    ("health", "5cf4045c32bcf154");
    ("ft", "919b5dea810ddde4");
    ("analyzer", "7752e5c5c64693b7");
    ("ammp", "c972768a31aeac63");
    ("art", "a2efe3c2af6e2789");
    ("equake", "14236dd2f296597f");
    ("povray", "7a0df1b3c631f7e8");
    ("omnetpp", "26d5ae1b57170fa1");
    ("xalanc", "99c82f81aed8f753");
    ("leela", "3961de36afe551f9");
    ("roms", "8031c4d3226c646b");
  ]

let hds_golden_digest name expected () =
  let w = Option.get (Workloads.find name) in
  Alcotest.check Alcotest.string (name ^ " hds plan digest") expected
    (hds_plan_digest (Hds_pipeline.plan (w.Workload.make Workload.Test)))

(* The merged-packing ablation re-packs the stock plan's candidates
   rather than profiling again; that must be the plan a merged profiling
   run makes. *)
let hds_repack_is_merged_plan () =
  List.iter
    (fun name ->
      let program = (Option.get (Workloads.find name)).Workload.make Workload.Test in
      Alcotest.check Alcotest.string (name ^ " re-packed with merge")
        (hds_plan_digest (Hds_pipeline.plan ~merge_identical:true program))
        (hds_plan_digest
           (Hds_pipeline.repack ~merge_identical:true (Hds_pipeline.plan program))))
    [ "health"; "ft"; "povray"; "roms" ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "sequitur: empty" seq_empty;
    tc "sequitur: simple roundtrip" seq_roundtrip_simple;
    tc "sequitur: classic abcdbc" seq_classic_abcdbc;
    tc "sequitur: hierarchical rules" seq_hierarchy;
    tc "sequitur: overlapping chain aaa" seq_overlapping_chain;
    tc "sequitur: aaaa forms a rule" seq_four_identical;
    tc "sequitur: chain regression 1" seq_chain_regression;
    tc "sequitur: chain regression 2" seq_chain_regression2;
    tc "sequitur: uses accounting" seq_uses_accounting;
    tc "sequitur: negative terminal rejected" seq_rejects_negative;
    tc "sequitur: push allocates nothing once warm" seq_push_allocates_nothing;
    tc "hot streams: periodic trace" streams_periodic;
    tc "hot streams: chunks cover the period" streams_chunking_covers_period;
    tc "hot streams: no repetition, no streams" streams_no_repeats_no_streams;
    tc "hot streams: empty grammar" streams_empty_grammar;
    tc "set packing: greedy disjoint" packing_disjoint;
    tc "set packing: cardinality scaling" packing_cardinality_scaling;
    tc "set packing: merge_identical ablation" packing_merge_identical;
    tc "set packing: empty candidates" packing_ignores_empty;
    tc "hds pipeline: identifies direct sites" hds_identifies_direct_sites;
    tc "hds pipeline: blind to wrappers" hds_blind_to_wrappers;
    tc "hds pipeline: classifier reads current site" hds_classifier_uses_cur_site;
    tc "hds pipeline: trace is the profiler's macro accesses" hds_trace_is_profiler_stream;
    tc "hds pipeline: re-packing matches a merged plan" hds_repack_is_merged_plan;
    tc "hds pipeline: a good config reaches the interpreter" hds_good_config_reaches_interp;
  ]
  @ List.map
      (fun (what, config) ->
        tc ("hds pipeline: rejects " ^ what ^ " before profiling")
          (hds_rejects_bad_config config))
      bad_hds_configs
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_seq_roundtrip; prop_seq_invariants; prop_seq_binary_chains;
        prop_packing_disjoint ]
  @ List.map
      (fun (name, d) ->
        tc ("hds pipeline: golden digest " ^ name) (hds_golden_digest name d))
      hds_golden
