(* Tests for the offline telemetry analysis (Telemetry). *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string
let checkf msg = check (Alcotest.float 1e-9) msg

let contains needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go from =
    from + n <= h
    && (String.sub hay from n = needle || go (from + 1))
  in
  go 0

(* ---------------- Telemetry: trace analysis ---------------- *)

(* A trace is produced the way the CLI produces one: run spans through a
   real Obs streaming to a buffer, then re-read the lines. The minor
   collection first keeps one from landing inside the run span, so its gc
   delta and the runtime.alloc_rate gauge are deterministic. *)
let recorded_text () =
  let clock = ref 0.0 in
  let advance dt = clock := !clock +. dt in
  let buf = Buffer.create 65536 in
  Gc.minor ();
  let obs = Obs.create ~clock:(fun () -> !clock) ~trace:(Obs.Buffer buf) () in
  let o = Some obs in
  Obs.span o "run" (fun () ->
      Obs.span o "profile"
        ~attrs:[ ("stage", Json.String "profile") ]
        (fun () ->
          advance 0.6;
          Obs.observe o "profile.accesses" 100.0;
          Obs.observe o "profile.accesses" 300.0);
      Obs.span o "rewrite"
        ~attrs:[ ("stage", Json.String "rewrite") ]
        (fun () -> advance 0.4);
      Obs.count o "events.total" 7);
  Obs.finish obs;
  Buffer.contents buf

let recorded_trace () = String.split_on_char '\n' (recorded_text ())

let ok = function Ok t -> t | Error e -> Alcotest.fail e

let parse_roundtrip () =
  let t = ok (Telemetry.of_lines (recorded_trace ())) in
  checki "three spans" 3 (List.length t.Telemetry.spans);
  let run =
    List.find (fun s -> s.Telemetry.r_name = "run") t.Telemetry.spans
  and prof =
    List.find (fun s -> s.Telemetry.r_name = "profile") t.Telemetry.spans
  in
  checkb "root has no parent" true (run.Telemetry.r_parent = None);
  checkb "stage attr recovered" true
    (prof.Telemetry.r_stage = Some "profile");
  checkb "child links to root" true
    (prof.Telemetry.r_parent = Some run.Telemetry.r_id);
  checki "depth from the parent links" 1 prof.Telemetry.r_depth;
  checkf "durations preserved" 1.0 run.Telemetry.r_dur_s;
  (* Summaries decode back into typed metric values. *)
  (match List.assoc "events.total" t.Telemetry.metrics with
  | Metrics.Counter n -> checki "counter summary" 7 n
  | _ -> Alcotest.fail "expected counter");
  match List.assoc "profile.accesses" t.Telemetry.metrics with
  | Metrics.Histogram { count; _ } as v ->
      checki "histogram summary" 2 count;
      checkb "quantiles re-derive from the decoded sketch" true
        (Option.get (Metrics.value_quantile v 1.0) > 200.0)
  | _ -> Alcotest.fail "expected histogram"

(* A killed writer never gets to write the closing "]". *)
let unterminated_trace_loads () =
  let lines = recorded_trace () in
  let cut = List.filter (fun l -> String.trim l <> "]") lines in
  checki "only the closing bracket is gone" (List.length lines - 1)
    (List.length cut);
  let full = ok (Telemetry.of_lines lines) and partial = ok (Telemetry.of_lines cut) in
  checkb "same spans" true (full.Telemetry.spans = partial.Telemetry.spans);
  checkb "same metrics" true (full.Telemetry.metrics = partial.Telemetry.metrics)

(* The fake-clock trace's report, captured from the JSONL reader this
   one replaced: the same trace data must render byte for byte the
   same. *)
let pinned_report =
  {|Per-stage time (self vs total)
+---------+-------+----------+----------+--------+
|  stage  | spans |  total   |   self   | self % |
+---------+-------+----------+----------+--------+
| profile |     1 | 600.00ms | 600.00ms |  60.0% |
| rewrite |     1 | 400.00ms | 400.00ms |  40.0% |
| run     |     1 |   1.000s |      0us |   0.0% |
+---------+-------+----------+----------+--------+

Top 10 spans by duration
+----------+-------+----------+----------+
|   span   | track |  start   |   dur    |
+----------+-------+----------+----------+
| run      |     0 |      0us |   1.000s |
|  profile |     0 |      0us | 600.00ms |
|  rewrite |     0 | 600.00ms | 400.00ms |
+----------+-------+----------+----------+

Metric summaries
+--------------------+-----------+-------+------+-------+-------+-------+-----+
|       metric       |   kind    | count | mean |  p50  |  p99  | p999  | max |
+--------------------+-----------+-------+------+-------+-------+-------+-----+
| events.total       |   counter |     7 |    - |     - |     - |     - |   - |
| profile.accesses   | histogram |     2 |  200 | 100.5 | 100.5 | 100.5 | 300 |
| runtime.alloc_rate |     gauge |     1 |    0 |     - |     - |     - |   0 |
+--------------------+-----------+-------+------+-------+-------+-------+-----+
|}

let report_is_pinned () =
  checks "report unchanged" pinned_report
    (Telemetry.report_string (ok (Telemetry.of_lines (recorded_trace ()))))

let malformed_lines_are_located () =
  let expect_error_at n lines =
    match Telemetry.of_lines lines with
    | Ok _ -> Alcotest.fail "expected an error"
    | Error e ->
        checkb
          (Printf.sprintf "error names line %d: %s" n e)
          true
          (contains (Printf.sprintf "line %d:" n) e)
  in
  expect_error_at 3 [ "["; "{\"name\":\"a\",\"ph\":\"i\"}"; ",not json" ];
  expect_error_at 2 [ "["; "{\"name\":\"a\",\"ph\":\"X\",\"ts\":0,\"dur\":1}" ];
  expect_error_at 4 [ "["; ""; "]"; ",{\"ph\":\"i\"}" ];
  expect_error_at 1 [];
  (* A trace in the retired JSONL layout is refused at its first line. *)
  expect_error_at 1
    [
      "{\"type\":\"span\",\"id\":0,\"name\":\"a\",\"depth\":0,\
       \"start_s\":0.0,\"dur_s\":1.0}";
    ]

let directory_is_an_error () =
  let dir = Filename.temp_file "halo-telemetry" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> Sys.rmdir dir)
    (fun () ->
      match Telemetry.load dir with
      | Ok _ -> Alcotest.fail "a directory loaded as a trace"
      | Error _ -> ())

let report_renders () =
  let t = Result.get_ok (Telemetry.of_lines (recorded_trace ())) in
  let report = Telemetry.report_string t in
  List.iter
    (fun needle ->
      checkb (Printf.sprintf "report mentions %s" needle) true
        (contains needle report))
    [ "profile"; "rewrite"; "events.total"; "self" ];
  (* Self time: run spends 0 outside its children, profile 0.6, rewrite
     0.4 — the stage table must not double-count nested time. *)
  let stage = Table.render (Telemetry.stage_table t) in
  checkb "stage table renders" true (String.length stage > 0)

let diff_flags_regressions () =
  let t_of lines = Result.get_ok (Telemetry.of_lines lines) in
  let summary name fields =
    [
      "[";
      Printf.sprintf
        "{\"name\":\"halo.metric\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":%S,%s}}"
        name fields;
    ]
  in
  let a = t_of (summary "hits" "\"kind\":\"counter\",\"value\":100") in
  let b = t_of (summary "hits" "\"kind\":\"counter\",\"value\":125") in
  (match Telemetry.diff ~threshold:0.10 a b with
  | [ row ] ->
      checks "named" "hits" row.Telemetry.d_name;
      checkf "delta" 0.25 (Option.get row.Telemetry.d_delta);
      checkb "beyond threshold" true row.Telemetry.d_regressed
  | rows ->
      Alcotest.fail (Printf.sprintf "expected one row, got %d" (List.length rows)));
  (match Telemetry.diff ~threshold:0.30 a b with
  | [ row ] -> checkb "within a looser threshold" false row.Telemetry.d_regressed
  | _ -> Alcotest.fail "expected one row");
  let _, regressed = Telemetry.diff_table ~threshold:0.10 a b in
  checkb "table verdict matches" true regressed;
  (* A metric present on one side only never crashes the diff. *)
  let empty = t_of [ "[" ] in
  match Telemetry.diff a empty with
  | [ row ] -> checkb "missing side is None" true (row.Telemetry.d_after = None)
  | _ -> Alcotest.fail "expected one row"

(* The reader's hostile-input contract: a valid trace with a few byte
   mutations loads as [Ok] or [Error], and nothing raises. *)
let reader_mutation_prop =
  QCheck2.Test.make ~name:"telemetry: reader survives byte mutations"
    ~count:400
    ~print:(fun muts -> String.concat " " (List.map Byte_mutation.show muts))
    QCheck2.Gen.(list_size (int_range 1 3) Byte_mutation.gen)
    (let text = lazy (recorded_text ()) in
     fun muts ->
       let data = List.fold_left Byte_mutation.mutate (Lazy.force text) muts in
       match Telemetry.of_lines (String.split_on_char '\n' data) with
       | Ok _ | Error _ -> true
       | exception e ->
           QCheck2.Test.fail_reportf "of_lines raised %s" (Printexc.to_string e))

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "telemetry: trace-event round-trip" parse_roundtrip;
    tc "telemetry: unterminated trace loads" unterminated_trace_loads;
    tc "telemetry: report pinned" report_is_pinned;
    tc "telemetry: malformed lines located" malformed_lines_are_located;
    tc "telemetry: directory is an error" directory_is_an_error;
    tc "telemetry: report renders" report_renders;
    tc "telemetry: diff thresholds" diff_flags_regressions;
    QCheck_alcotest.to_alcotest reader_mutation_prop;
  ]
