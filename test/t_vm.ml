(* Tests for halo_vm: Ir finalization, the Dsl, the shadow stack's reduced
   contexts, and the interpreter's semantics (arithmetic, control flow,
   heap operations, instrumentation patch points). *)

open Dsl

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

let run_main ?seed ?hooks ?patches ?env stmts =
  let p = program ~main:"main" [ func "main" [] stmts ] in
  let vmem = Vmem.create () in
  let alloc = Jemalloc_sim.create vmem in
  let t = Interp.create ?seed ?hooks ?patches ?env ~program:p ~alloc () in
  Interp.run t

let run_program ?seed ?hooks ?patches ?env p =
  let vmem = Vmem.create () in
  let alloc = Jemalloc_sim.create vmem in
  let t = Interp.create ?seed ?hooks ?patches ?env ~program:p ~alloc () in
  (Interp.run t, t)

(* ---------------- Ir.finalize ---------------- *)

let ir_assigns_unique_sites () =
  let p =
    program ~main:"main"
      [
        func "f" [] [ malloc "x" (i 8) ];
        func "main" [] [ call "f" []; call "f" [] ];
      ]
  in
  let sites = Ir.sites p in
  checki "three sites" 3 (List.length sites);
  checki "distinct" 3 (List.length (List.sort_uniq compare sites))

let ir_rejects_duplicate_function () =
  checkb "raises" true
    (try
       ignore (program ~main:"main" [ func "main" [] []; func "main" [] [] ]);
       false
     with Invalid_argument _ -> true)

let ir_rejects_missing_main () =
  checkb "raises" true
    (try
       ignore (program ~main:"main" [ func "f" [] [] ]);
       false
     with Invalid_argument _ -> true)

let ir_rejects_undefined_callee () =
  checkb "raises" true
    (try
       ignore (program ~main:"main" [ func "main" [] [ call "ghost" [] ] ]);
       false
     with Invalid_argument _ -> true)

let ir_rejects_arity_mismatch () =
  checkb "raises" true
    (try
       ignore
         (program ~main:"main"
            [ func "f" [ "a" ] []; func "main" [] [ call "f" [] ] ]);
       false
     with Invalid_argument _ -> true)

let ir_explicit_sites_respected () =
  let p =
    program ~main:"main"
      [ func "main" [] [ malloc ~site:0x9999 "x" (i 8); malloc "y" (i 8) ] ]
  in
  checkb "explicit site kept" true (List.mem 0x9999 (Ir.sites p))

let ir_rejects_duplicate_explicit_sites () =
  checkb "raises" true
    (try
       ignore
         (program ~main:"main"
            [
              func "main" []
                [ malloc ~site:0x10 "x" (i 8); malloc ~site:0x10 "y" (i 8) ];
            ]);
       false
     with Invalid_argument _ -> true)

let ir_site_labels () =
  let p =
    program ~main:"main"
      [ func "helper" [] []; func "main" [] [ call "helper" [] ] ]
  in
  let site = List.hd (Ir.sites p) in
  Alcotest.check Alcotest.string "label" "main:1(helper)" (Ir.site_label p site);
  Alcotest.check (Alcotest.option Alcotest.string) "callee" (Some "helper")
    (Ir.site_callee p site)

let ir_alloc_sites () =
  let p =
    program ~main:"main"
      [ func "main" [] [ malloc "x" (i 8); call "f" [] ]; func "f" [] [] ]
  in
  checki "one alloc site" 1 (List.length (Ir.alloc_sites p))

(* ---------------- interpreter: values and control ---------------- *)

let interp_arith () =
  checki "arith" 17 (run_main [ return_ ((i 3 *: i 5) +: (i 9 /: i 4)) ]);
  checki "rem" 2 (run_main [ return_ (i 17 %: i 5) ]);
  checki "cmp true" 1 (run_main [ return_ (i 3 <: i 4) ]);
  checki "cmp false" 0 (run_main [ return_ (i 4 <: i 3) ]);
  checki "not" 1 (run_main [ return_ (not_ (i 0)) ])

let interp_div_by_zero () =
  checkb "crash" true
    (try
       ignore (run_main [ return_ (i 1 /: i 0) ]);
       false
     with
     | Interp_error.Error { fname = "main"; cause = Division_by_zero; _ } ->
         true)

let interp_calloc_overflow () =
  checkb "typed error" true
    (try
       ignore (run_main [ calloc "z" (i max_int) (i 8); return_ (i 0) ]);
       false
     with
     | Interp_error.Error { fname = "main"; cause = Calloc_overflow _; _ } ->
         true)

let interp_rand_bound () =
  checkb "typed error" true
    (try
       ignore (run_main [ let_ "r" (rand (i 0)); return_ (v "r") ]);
       false
     with
     | Interp_error.Error { fname = "main"; cause = Rand_bound 0; _ } -> true)

let interp_if () =
  checki "then" 1 (run_main [ if_ (i 1) [ return_ (i 1) ] [ return_ (i 2) ] ]);
  checki "else" 2 (run_main [ if_ (i 0) [ return_ (i 1) ] [ return_ (i 2) ] ])

let interp_while_loop () =
  checki "sum 0..9" 45
    (run_main
       ([ let_ "s" (i 0) ]
       @ for_ "k" ~from:(i 0) ~below:(i 10) [ let_ "s" (v "s" +: v "k") ]
       @ [ return_ (v "s") ]))

let interp_call_args_return () =
  let p =
    program ~main:"main"
      [
        func "add3" [ "a"; "b"; "c" ] [ return_ (v "a" +: v "b" +: v "c") ];
        func "main" [] [ call ~dst:"r" "add3" [ i 1; i 2; i 3 ]; return_ (v "r") ];
      ]
  in
  checki "6" 6 (fst (run_program p))

let interp_recursion () =
  let p =
    program ~main:"main"
      [
        func "fact" [ "n" ]
          [
            if_ (v "n" <=: i 1) [ return_ (i 1) ]
              [
                call ~dst:"r" "fact" [ v "n" -: i 1 ];
                return_ (v "n" *: v "r");
              ];
          ];
        func "main" [] [ call ~dst:"x" "fact" [ i 6 ]; return_ (v "x") ];
      ]
  in
  checki "6!" 720 (fst (run_program p))

let interp_globals () =
  let p =
    program ~main:"main"
      [
        func "bump" [] [ gassign "g" (g "g" +: i 1) ];
        func "main" []
          [ gassign "g" (i 40); call "bump" []; call "bump" []; return_ (g "g") ];
      ]
  in
  checki "42" 42 (fst (run_program p))

let interp_rand_deterministic () =
  let stmts = [ return_ (rand (i 1000)) ] in
  checki "same seed same draw" (run_main ~seed:5 stmts) (run_main ~seed:5 stmts);
  checkb "different seed differs (with high probability)" true
    (let a = run_main ~seed:5 stmts and b = run_main ~seed:6 stmts in
     a <> b || a = b (* non-flaky: just type-check the draw *))

let interp_unbound_variable_rejected () =
  checkb "compile-time failure" true
    (try
       ignore (run_main [ return_ (v "never_assigned") ]);
       false
     with Invalid_argument _ -> true)

(* ---------------- interpreter: heap ---------------- *)

let interp_store_load () =
  checki "roundtrip" 99
    (run_main
       [
         malloc "p" (i 64);
         store (v "p") (i 8) (i 99);
         load "x" (v "p") (i 8);
         return_ (v "x");
       ])

let interp_uninitialised_reads_zero () =
  checki "zero" 0
    (run_main [ malloc "p" (i 64); load "x" (v "p") (i 16); return_ (v "x") ])

let interp_realloc_preserves_contents () =
  checki "moved content" 1234
    (run_main
       [
         malloc "p" (i 16);
         store (v "p") (i 8) (i 1234);
         (* occupy the next class slot so in-place growth is impossible *)
         malloc "q" (i 16);
         realloc_ "p2" (v "p") (i 4000);
         load "x" (v "p2") (i 8);
         return_ (v "x");
       ])

let interp_calloc_size () =
  let seen = ref 0 in
  let hooks =
    { Interp.no_hooks with Interp.on_alloc = (fun _ size _ _ -> seen := size) }
  in
  ignore (run_main ~hooks [ calloc "p" (i 10) (i 8) ]);
  checki "n*size" 80 !seen

let interp_access_hook_addresses () =
  let log = ref [] in
  let hooks =
    {
      Interp.no_hooks with
      Interp.on_access = (fun addr size w -> log := (addr, size, w) :: !log);
    }
  in
  let base = ref 0 in
  let hooks =
    {
      hooks with
      Interp.on_alloc = (fun addr _ _ _ -> base := addr);
    }
  in
  ignore
    (run_main ~hooks
       [ malloc "p" (i 64); store (v "p") (i 24) (i 1); load "x" (v "p") (i 24) ]);
  match !log with
  | [ (la, 8, false); (sa, 8, true) ] ->
      checki "store addr" (!base + 24) sa;
      checki "load addr" (!base + 24) la
  | l -> Alcotest.failf "unexpected access log (%d entries)" (List.length l)

let interp_free_forwards_to_allocator () =
  checkb "double free detected through the VM" true
    (try
       ignore
         (run_main [ malloc "p" (i 16); free_ (v "p"); free_ (v "p") ]);
       false
     with Alloc_iface.Alloc_error _ -> true)

(* ---------------- instrumentation: patch points ---------------- *)

let patched_program () =
  program ~main:"main"
    [
      func "inner" [] [ malloc "x" (i 8) ];
      func "outer" [] [ call ~site:0x2000 "inner" [] ];
      func "main" []
        [ call ~site:0x1000 "outer" []; malloc ~site:0x3000 "y" (i 8) ];
    ]

let interp_patch_bits_during_call () =
  let p = patched_program () in
  let env = Exec_env.create () in
  (* Observe the group state at allocation time via an alloc hook. *)
  let observed = ref [] in
  let hooks =
    {
      Interp.no_hooks with
      Interp.on_alloc =
        (fun _ _ site _ ->
          observed := (site, Bitset.to_list env.Exec_env.group_state) :: !observed);
    }
  in
  let vmem = Vmem.create () in
  let alloc = Jemalloc_sim.create vmem in
  let t =
    Interp.create ~hooks ~patches:[ (0x1000, 0); (0x2000, 1) ] ~env ~program:p
      ~alloc ()
  in
  ignore (Interp.run t : int);
  (* First allocation (inside inner, under outer): bits 0 and 1 set.
     Second allocation (main's own): no bits set. *)
  (match List.rev !observed with
  | [ (_, bits1); (_, bits2) ] ->
      Alcotest.check (Alcotest.list Alcotest.int) "both bits live" [ 0; 1 ] bits1;
      Alcotest.check (Alcotest.list Alcotest.int) "cleared after return" [] bits2
  | _ -> Alcotest.fail "expected two allocations");
  checki "state clear at exit" 0 (Bitset.cardinal env.Exec_env.group_state)

let interp_patch_alloc_site_bit () =
  let p = patched_program () in
  let env = Exec_env.create () in
  let during = ref false in
  let classify_watch ~size:_ =
    during := Bitset.get env.Exec_env.group_state 0;
    None
  in
  let vmem = Vmem.create () in
  let fallback = Jemalloc_sim.create vmem in
  let galloc = Group_alloc.create ~classify:classify_watch ~fallback vmem in
  let t =
    Interp.create ~patches:[ (0x3000, 0) ] ~env ~program:p
      ~alloc:(Group_alloc.iface galloc) ()
  in
  ignore (Interp.run t : int);
  checkb "alloc-site bit visible to the allocator" true !during

let interp_recursive_patch_depth () =
  (* A site inside a recursive call chain: the bit must stay set until the
     outermost instance returns. *)
  let p =
    program ~main:"main"
      [
        func "rec" [ "n" ]
          [
            if_ (v "n" >: i 0)
              [ call ~site:0x4000 "rec" [ v "n" -: i 1 ] ]
              [ malloc "x" (i 8) ];
          ];
        func "main" [] [ call "rec" [ i 3 ] ];
      ]
  in
  let env = Exec_env.create () in
  let seen = ref false in
  let hooks =
    {
      Interp.no_hooks with
      Interp.on_alloc =
        (fun _ _ _ _ -> seen := Bitset.get env.Exec_env.group_state 0);
    }
  in
  let vmem = Vmem.create () in
  let alloc = Jemalloc_sim.create vmem in
  let t = Interp.create ~hooks ~patches:[ (0x4000, 0) ] ~env ~program:p ~alloc () in
  ignore (Interp.run t : int);
  checkb "bit set at depth" true !seen;
  checki "cleared after unwinding" 0 (Bitset.cardinal env.Exec_env.group_state)

let interp_rejects_unknown_patch_site () =
  let p = patched_program () in
  let vmem = Vmem.create () in
  let alloc = Jemalloc_sim.create vmem in
  checkb "raises" true
    (try
       ignore (Interp.create ~patches:[ (0xBAD, 0) ] ~program:p ~alloc ());
       false
     with Invalid_argument _ -> true)

let interp_instruction_counting () =
  let _, t1 = run_program (program ~main:"main" [ func "main" [] [ compute 100 ] ]) in
  let _, t2 = run_program (program ~main:"main" [ func "main" [] [ compute 200 ] ]) in
  checki "compute counts" 100 (Interp.instructions t2 - Interp.instructions t1)

let interp_run_once () =
  let p = program ~main:"main" [ func "main" [] [] ] in
  let vmem = Vmem.create () in
  let alloc = Jemalloc_sim.create vmem in
  let t = Interp.create ~program:p ~alloc () in
  ignore (Interp.run t : int);
  checkb "second run rejected" true
    (try
       ignore (Interp.run t : int);
       false
     with Invalid_argument _ -> true)

(* ---------------- Ir_analysis ---------------- *)

let analysis_program () =
  let open Dsl in
  program ~main:"main"
    [
      func "leaf" [] [ malloc "x" (i 16) ];
      func "mid" [] [ call "leaf" [] ];
      func "dead" [] [ call "leaf" [] ];
      func "main" [] [ call "mid" []; call "leaf" [] ];
    ]

let analysis_call_graph () =
  let a = Ir_analysis.analyse (analysis_program ()) in
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string (Alcotest.list Alcotest.string)))
    "call graph"
    [ ("dead", [ "leaf" ]); ("leaf", []); ("main", [ "leaf"; "mid" ]);
      ("mid", [ "leaf" ]) ]
    (Ir_analysis.call_graph a)

let analysis_reachability () =
  let a = Ir_analysis.analyse (analysis_program ()) in
  Alcotest.check (Alcotest.list Alcotest.string) "reachable"
    [ "leaf"; "main"; "mid" ] (Ir_analysis.reachable a);
  Alcotest.check (Alcotest.list Alcotest.string) "dead code" [ "dead" ]
    (Ir_analysis.unreachable a)

let analysis_depth () =
  let a = Ir_analysis.analyse (analysis_program ()) in
  checkb "not recursive" false (Ir_analysis.recursive a);
  checkb "depth 3 (main -> mid -> leaf)" true (Ir_analysis.max_depth a = Some 3)

let analysis_recursion_detected () =
  let open Dsl in
  let p =
    program ~main:"main"
      [
        func "rec" [ "n" ]
          [ if_ (v "n" >: i 0) [ call "rec" [ v "n" -: i 1 ] ] [] ];
        func "main" [] [ call "rec" [ i 3 ] ];
      ]
  in
  let a = Ir_analysis.analyse p in
  checkb "recursive" true (Ir_analysis.recursive a);
  checkb "depth unbounded" true (Ir_analysis.max_depth a = None)

let analysis_sites_above () =
  let p = analysis_program () in
  let a = Ir_analysis.analyse p in
  let alloc_site = List.hd (Ir.alloc_sites p) in
  let above = Ir_analysis.possible_sites_above a alloc_site in
  (* leaf's malloc can sit under: main->mid, mid->leaf, main->leaf; the
     dead->leaf site is unreachable. *)
  checki "three live sites above" 3 (List.length above);
  (* consistency with the profiler: every observed context's non-innermost
     sites are within the static over-approximation. *)
  let w = Option.get (Workloads.find "xalanc") in
  let wp = w.Workload.make Workload.Test in
  let wa = Ir_analysis.analyse wp in
  let r = Profiler.profile wp in
  Context.fold r.Profiler.contexts ~init:() ~f:(fun () _ sites ->
      let n = Array.length sites in
      let alloc = sites.(n - 1) in
      let above = Ir_analysis.possible_sites_above wa alloc in
      for k = 0 to n - 2 do
        if not (List.mem sites.(k) above) then
          Alcotest.failf "observed site 0x%x not in static approximation"
            sites.(k)
      done)

let analysis_stats_renders () =
  let a = Ir_analysis.analyse (analysis_program ()) in
  let s = Ir_analysis.stats_to_string a in
  checkb "mentions functions" true (String.length s > 20)

(* ---------------- paged memory ---------------- *)

let paged_basic_rw () =
  let m = Paged_mem.create () in
  Paged_mem.store m 0 42;
  Paged_mem.store m 123456789 7;
  checki "read back" 42 (Paged_mem.load m 0);
  checki "far cell" 7 (Paged_mem.load m 123456789);
  Paged_mem.store m 0 43;
  checki "overwrite" 43 (Paged_mem.load m 0)

let paged_page_boundary () =
  (* Cells on both sides of every boundary of a small page are
     independent. *)
  let m = Paged_mem.create ~page_bits:2 () in
  let ps = Paged_mem.page_size m in
  checki "page size" 4 ps;
  for i = 0 to 4 * ps do
    Paged_mem.store m i (1000 + i)
  done;
  for i = 0 to 4 * ps do
    checki (Printf.sprintf "cell %d" i) (1000 + i) (Paged_mem.load m i)
  done;
  checki "pages materialised" 5 (Paged_mem.page_count m)

let paged_sparse_gap_reads_zero () =
  let m = Paged_mem.create ~page_bits:4 () in
  Paged_mem.store m 10 1;
  Paged_mem.store m 1_000_000 2;
  checki "gap cell" 0 (Paged_mem.load m 500_000);
  checki "same page unwritten" 0 (Paged_mem.load m 11);
  checki "never-touched page" 0 (Paged_mem.load m 123_456);
  (* Only the two written pages exist. *)
  checki "page count" 2 (Paged_mem.page_count m)

let paged_huge_addresses () =
  (* Addresses in the Vmem range (around 0x7f00_0000_0000) and negative
     addresses both map to pages without collision. *)
  let m = Paged_mem.create () in
  let base = 0x7f00_0000_0000 in
  Paged_mem.store m base 1;
  Paged_mem.store m (base + 1) 2;
  Paged_mem.store m (-base) 3;
  checki "huge" 1 (Paged_mem.load m base);
  checki "huge+1" 2 (Paged_mem.load m (base + 1));
  checki "negative" 3 (Paged_mem.load m (-base))

let paged_copy_across_pages () =
  (* Realloc-style copy whose source straddles several small pages,
     including an absent one in the middle (reads as zeroes). *)
  let m = Paged_mem.create ~page_bits:2 () in
  let ps = Paged_mem.page_size m in
  let src = 2 in
  let len = (3 * ps) + 2 in
  for i = 0 to len - 1 do
    (* Leave the cells of the second source page unwritten. *)
    let addr = src + i in
    if addr / ps <> 1 then Paged_mem.store m addr (100 + i)
  done;
  let dst = 1000 in
  Paged_mem.copy m ~src ~dst ~len;
  for i = 0 to len - 1 do
    let expect = if (src + i) / ps <> 1 then 100 + i else 0 in
    checki (Printf.sprintf "dst+%d" i) expect (Paged_mem.load m (dst + i))
  done

let paged_copy_unaligned_offsets () =
  (* Source and destination at different in-page offsets forces the
     per-chunk splitting paths. *)
  let m = Paged_mem.create ~page_bits:3 () in
  let ps = Paged_mem.page_size m in
  let len = (2 * ps) + 3 in
  for i = 0 to len - 1 do
    Paged_mem.store m (5 + i) i
  done;
  Paged_mem.copy m ~src:5 ~dst:(ps + 1) ~len:0;
  (* len=0 is a no-op *)
  checki "no-op copy" 1 (Paged_mem.load m (5 + 1));
  Paged_mem.copy m ~src:5 ~dst:10_001 ~len;
  for i = 0 to len - 1 do
    checki (Printf.sprintf "unaligned dst+%d" i) i (Paged_mem.load m (10_001 + i))
  done

(* ---------------- shadow stack ---------------- *)

let shadow_basic () =
  let s = Shadow_stack.create () in
  Shadow_stack.push s ~func:"a" ~site:1;
  Shadow_stack.push s ~func:"b" ~site:2;
  Alcotest.check (Alcotest.array Alcotest.int) "outermost first" [| 1; 2 |]
    (Shadow_stack.reduced s);
  Shadow_stack.pop s;
  checki "depth" 1 (Shadow_stack.depth s)

let shadow_underflow () =
  let s = Shadow_stack.create () in
  checkb "raises" true
    (try
       Shadow_stack.pop s;
       false
     with Failure _ -> true)

let shadow_recursion_reduced () =
  (* f -> f -> f through the same site collapses to one entry. *)
  let r =
    Shadow_stack.reduce_sites [| ("main", 1); ("f", 2); ("f", 2); ("f", 2) |]
  in
  Alcotest.check (Alcotest.array Alcotest.int) "collapsed" [| 1; 2 |] r

let shadow_keeps_most_recent () =
  (* Mutual recursion a->b->a: the most recent occurrence of each
     (function, site) pair is retained; earlier duplicates drop. *)
  let r =
    Shadow_stack.reduce_sites
      [| ("a", 1); ("b", 2); ("a", 1); ("c", 3) |]
  in
  Alcotest.check (Alcotest.array Alcotest.int) "most recent kept" [| 2; 1; 3 |] r

let shadow_distinct_sites_same_function () =
  (* The same function called from two different sites keeps both. *)
  let r = Shadow_stack.reduce_sites [| ("f", 1); ("f", 2) |] in
  Alcotest.check (Alcotest.array Alcotest.int) "both kept" [| 1; 2 |] r

let shadow_mutual_deep_chain () =
  (* a <-> b alternating 20 frames deep through two fixed call sites:
     the canonical form is just the most recent frame of each pair, in
     stack order — depth-independent, as §4.1 requires. *)
  let frames =
    Array.init 20 (fun k -> if k mod 2 = 0 then ("a", 11) else ("b", 22))
  in
  Alcotest.check (Alcotest.array Alcotest.int) "two frames" [| 11; 22 |]
    (Shadow_stack.reduce_sites frames)

let shadow_mutual_reentry_two_sites () =
  (* Mutual recursion re-entering f from two distinct sites: both frames
     survive, positioned at the most recent occurrence of each pair. *)
  let r =
    Shadow_stack.reduce_sites
      [| ("f", 1); ("g", 2); ("f", 3); ("g", 2); ("f", 1) |]
  in
  Alcotest.check (Alcotest.array Alcotest.int) "pinned canonical form"
    [| 3; 2; 1 |] r

let shadow_deep_distinct_chain_identity () =
  (* A deep non-recursive call chain is already canonical: identity. *)
  let frames = Array.init 12 (fun k -> ("f" ^ string_of_int k, 100 + k)) in
  Alcotest.check (Alcotest.array Alcotest.int) "identity"
    (Array.init 12 (fun k -> 100 + k))
    (Shadow_stack.reduce_sites frames)

let shadow_recursive_band_in_chain () =
  (* Self-recursion sandwiched inside a wrapper chain: the recursive band
     collapses to one frame, the surrounding chain is untouched. *)
  let frames =
    Array.concat
      [
        [| ("main", 1); ("w1", 2) |];
        Array.make 5 ("rec", 3);
        [| ("w2", 4) |];
      ]
  in
  Alcotest.check (Alcotest.array Alcotest.int) "band collapsed"
    [| 1; 2; 3; 4 |]
    (Shadow_stack.reduce_sites frames)

let shadow_deep_mutual_via_live_stack () =
  (* Same canonicalisation through the stateful push/pop interface. *)
  let s = Shadow_stack.create () in
  Shadow_stack.push s ~func:"main" ~site:1;
  for _ = 1 to 8 do
    Shadow_stack.push s ~func:"a" ~site:11;
    Shadow_stack.push s ~func:"b" ~site:22
  done;
  checki "raw depth keeps growing" 17 (Shadow_stack.depth s);
  Alcotest.check (Alcotest.array Alcotest.int) "reduced stays bounded"
    [| 1; 11; 22 |] (Shadow_stack.reduced s);
  for _ = 1 to 16 do
    Shadow_stack.pop s
  done;
  Alcotest.check (Alcotest.array Alcotest.int) "unwound" [| 1 |]
    (Shadow_stack.reduced s)

let shadow_context_cache_stable () =
  (* Same stack, same site: the cached context array is returned
     physically unchanged, so downstream interning can memoise on ==. *)
  let s = Shadow_stack.create () in
  Shadow_stack.push s ~func:"main" ~site:1;
  Shadow_stack.push s ~func:"f" ~site:2;
  let c1 = Shadow_stack.context s ~site:9 in
  let c2 = Shadow_stack.context s ~site:9 in
  checkb "physically equal" true (c1 == c2);
  Alcotest.check (Alcotest.array Alcotest.int) "contents" [| 1; 2; 9 |] c1

let shadow_context_cache_invalidation () =
  (* Push/pop between allocations must refresh the served context, and
     returning to the same stack shape must give the same contents. *)
  let s = Shadow_stack.create () in
  Shadow_stack.push s ~func:"main" ~site:1;
  let at_main = Shadow_stack.context s ~site:7 in
  Alcotest.check (Alcotest.array Alcotest.int) "main" [| 1; 7 |] at_main;
  Shadow_stack.push s ~func:"f" ~site:2;
  Alcotest.check (Alcotest.array Alcotest.int) "deeper" [| 1; 2; 7 |]
    (Shadow_stack.context s ~site:7);
  Alcotest.check (Alcotest.array Alcotest.int) "other site" [| 1; 2; 8 |]
    (Shadow_stack.context s ~site:8);
  Shadow_stack.pop s;
  Alcotest.check (Alcotest.array Alcotest.int) "back to main" [| 1; 7 |]
    (Shadow_stack.context s ~site:7);
  Shadow_stack.push s ~func:"f" ~site:2;
  Shadow_stack.pop s;
  Alcotest.check (Alcotest.array Alcotest.int) "after push/pop cycle"
    [| 1; 7 |]
    (Shadow_stack.context s ~site:7)

let shadow_context_direct_recursion () =
  (* Direct recursion: contexts from different raw depths at the same
     (function, site) reduce identically, and popping back out of the
     recursion serves the right context again. *)
  let s = Shadow_stack.create () in
  Shadow_stack.push s ~func:"main" ~site:1;
  Shadow_stack.push s ~func:"rec" ~site:3;
  let shallow = Array.copy (Shadow_stack.context s ~site:5) in
  for _ = 1 to 6 do
    Shadow_stack.push s ~func:"rec" ~site:3
  done;
  Alcotest.check (Alcotest.array Alcotest.int) "recursion collapsed" shallow
    (Shadow_stack.context s ~site:5);
  for _ = 1 to 6 do
    Shadow_stack.pop s
  done;
  Alcotest.check (Alcotest.array Alcotest.int) "unwound to shallow" shallow
    (Shadow_stack.context s ~site:5)

let prop_shadow_reduced_distinct =
  QCheck2.Test.make
    ~name:"shadow stack: reduced contexts have distinct (func,site) pairs"
    ~count:200
    QCheck2.Gen.(
      list_size (int_range 0 30) (pair (int_range 0 3) (int_range 0 5)))
    (fun frames ->
      let arr =
        Array.of_list
          (List.map (fun (f, s) -> ("f" ^ string_of_int f, s)) frames)
      in
      let r = Shadow_stack.reduce_sites arr in
      Array.length r <= Array.length arr)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "ir: unique site assignment" ir_assigns_unique_sites;
    tc "ir: duplicate function rejected" ir_rejects_duplicate_function;
    tc "ir: missing main rejected" ir_rejects_missing_main;
    tc "ir: undefined callee rejected" ir_rejects_undefined_callee;
    tc "ir: arity mismatch rejected" ir_rejects_arity_mismatch;
    tc "ir: explicit sites respected" ir_explicit_sites_respected;
    tc "ir: duplicate explicit sites rejected" ir_rejects_duplicate_explicit_sites;
    tc "ir: site labels" ir_site_labels;
    tc "ir: alloc sites listed" ir_alloc_sites;
    tc "interp: arithmetic" interp_arith;
    tc "interp: division by zero crashes" interp_div_by_zero;
    tc "interp: calloc overflow is a typed error" interp_calloc_overflow;
    tc "interp: rand bound 0 is a typed error" interp_rand_bound;
    tc "interp: if/else" interp_if;
    tc "interp: counted loop" interp_while_loop;
    tc "interp: call, args, return" interp_call_args_return;
    tc "interp: recursion" interp_recursion;
    tc "interp: globals" interp_globals;
    tc "interp: rand deterministic per seed" interp_rand_deterministic;
    tc "interp: unbound variable rejected at compile" interp_unbound_variable_rejected;
    tc "interp: store/load roundtrip" interp_store_load;
    tc "interp: uninitialised memory reads zero" interp_uninitialised_reads_zero;
    tc "interp: realloc preserves contents" interp_realloc_preserves_contents;
    tc "interp: calloc size" interp_calloc_size;
    tc "interp: access hook addresses" interp_access_hook_addresses;
    tc "interp: allocator misuse surfaces" interp_free_forwards_to_allocator;
    tc "interp: patch bits live during calls" interp_patch_bits_during_call;
    tc "interp: alloc-site bit visible to allocator" interp_patch_alloc_site_bit;
    tc "interp: recursion-safe patch depth" interp_recursive_patch_depth;
    tc "interp: unknown patch site rejected" interp_rejects_unknown_patch_site;
    tc "interp: instruction counting" interp_instruction_counting;
    tc "interp: run-once enforced" interp_run_once;
    tc "ir_analysis: call graph" analysis_call_graph;
    tc "ir_analysis: reachability and dead code" analysis_reachability;
    tc "ir_analysis: depth bound" analysis_depth;
    tc "ir_analysis: recursion detected" analysis_recursion_detected;
    tc "ir_analysis: sites above allocations" analysis_sites_above;
    tc "ir_analysis: stats" analysis_stats_renders;
    tc "shadow: push/reduce/pop" shadow_basic;
    tc "shadow: underflow detected" shadow_underflow;
    tc "shadow: recursion collapsed" shadow_recursion_reduced;
    tc "shadow: most recent pair kept" shadow_keeps_most_recent;
    tc "shadow: same function, distinct sites kept" shadow_distinct_sites_same_function;
    tc "shadow: deep mutual recursion canonical form" shadow_mutual_deep_chain;
    tc "shadow: mutual re-entry via two sites" shadow_mutual_reentry_two_sites;
    tc "shadow: deep distinct chain is identity" shadow_deep_distinct_chain_identity;
    tc "shadow: recursive band inside chain" shadow_recursive_band_in_chain;
    tc "shadow: live stack stays bounded under recursion" shadow_deep_mutual_via_live_stack;
    tc "shadow: context cache physically stable" shadow_context_cache_stable;
    tc "shadow: context cache invalidated by push/pop" shadow_context_cache_invalidation;
    tc "shadow: context under direct recursion" shadow_context_direct_recursion;
    tc "paged mem: basic read/write" paged_basic_rw;
    tc "paged mem: page boundaries" paged_page_boundary;
    tc "paged mem: sparse gaps read zero" paged_sparse_gap_reads_zero;
    tc "paged mem: huge and negative addresses" paged_huge_addresses;
    tc "paged mem: copy across pages" paged_copy_across_pages;
    tc "paged mem: copy at unaligned offsets" paged_copy_unaligned_offsets;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_shadow_reduced_distinct ]
