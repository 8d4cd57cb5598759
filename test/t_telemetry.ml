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
   real Obs with a JSONL sink, then re-read the lines. *)
let recorded_trace () =
  let clock = ref 0.0 in
  let advance dt = clock := !clock +. dt in
  let buf = Buffer.create 1024 in
  let obs = Obs.create ~clock:(fun () -> !clock) ~sink:(Trace.to_buffer buf) () in
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
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

let parse_roundtrip () =
  let t =
    match Telemetry.of_lines (recorded_trace ()) with
    | Ok t -> t
    | Error e -> Alcotest.fail e
  in
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

let malformed_lines_are_located () =
  match
    Telemetry.of_lines
      [
        "{\"type\":\"span\",\"id\":0,\"name\":\"a\",\"depth\":0,\
         \"start_s\":0.0,\"dur_s\":1.0}";
        "not json";
      ]
  with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> checkb "error names the line" true (contains "line 2" e)

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
    Printf.sprintf
      "{\"type\":\"summary\",\"name\":%S,%s,\"seq\":0}" name fields
  in
  let a = t_of [ summary "hits" "\"kind\":\"counter\",\"value\":100" ] in
  let b = t_of [ summary "hits" "\"kind\":\"counter\",\"value\":125" ] in
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
  let empty = t_of [] in
  match Telemetry.diff a empty with
  | [ row ] -> checkb "missing side is None" true (row.Telemetry.d_after = None)
  | _ -> Alcotest.fail "expected one row"

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "telemetry: JSONL round-trip" parse_roundtrip;
    tc "telemetry: malformed lines located" malformed_lines_are_located;
    tc "telemetry: report renders" report_renders;
    tc "telemetry: diff thresholds" diff_flags_regressions;
  ]
