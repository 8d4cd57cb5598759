(* Tests for halo_obs: Metrics (quantile sketches), Obs and its
   trace-event encoder. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checks = check Alcotest.string
let checkf msg = check (Alcotest.float 1e-9) msg

(* A deterministic clock for span timing tests. *)
let fake_clock () =
  let now = ref 0.0 in
  ((fun () -> !now), fun dt -> now := !now +. dt)

(* ---------------- Metrics ---------------- *)

let metrics_counter () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "c" in
  Metrics.incr c;
  Metrics.incr ~by:41 c;
  checki "accumulates" 42 (Metrics.counter_value c);
  checks "name" "c" (Metrics.counter_name c);
  checkb "registration is idempotent" true (c == Metrics.counter reg "c")

let metrics_kind_mismatch () =
  let reg = Metrics.create () in
  ignore (Metrics.counter reg "c" : Metrics.counter);
  let raised =
    try
      ignore (Metrics.gauge reg "c" : Metrics.gauge);
      false
    with Invalid_argument _ -> true
  in
  checkb "re-registering as another kind raises" true raised

let metrics_gauge () =
  let reg = Metrics.create () in
  let g = Metrics.gauge reg "g" in
  List.iter (Metrics.set g) [ 1.0; 5.0; 2.0 ];
  checkf "last wins" 2.0 (Metrics.gauge_value g);
  match List.assoc "g" (Metrics.snapshot reg) with
  | Metrics.Gauge { last; max; samples } ->
      checkf "last" 2.0 last;
      checkf "running max" 5.0 max;
      checki "sample count" 3 samples
  | _ -> Alcotest.fail "expected a gauge"

(* ---------------- Quantile sketch ---------------- *)

let sketch_basics () =
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "h" in
  checkf "default accuracy" Metrics.default_alpha (Metrics.histogram_alpha h);
  List.iter (Metrics.observe h) [ 0.0; -1.0; 1.0; 100.0; 1e6 ];
  checki "count includes non-positive" 5 (Metrics.histogram_count h);
  checkf "sum is exact" 1000100.0 (Metrics.histogram_sum h);
  checkf "min" (-1.0) (Metrics.histogram_min h);
  checkf "max" 1e6 (Metrics.histogram_max h);
  (match Metrics.histogram_buckets h with
  | (0.0, z) :: pos ->
      checki "zero bucket tallies v <= 0" 2 z;
      checki "one sparse bucket per distinct magnitude" 3 (List.length pos);
      checkb "positive bounds ascend" true
        (List.sort compare pos = pos)
  | _ -> Alcotest.fail "expected the zero bucket first");
  (* Low ranks fall in the zero bucket, the top rank near the max. *)
  checkf "q=0.1 is zero" 0.0 (Option.get (Metrics.quantile h 0.1));
  let top = Option.get (Metrics.quantile h 1.0) in
  checkb "q=1 within alpha of max" true
    (Float.abs (top -. 1e6) /. 1e6 <= Metrics.default_alpha);
  checkb "empty sketch has no quantile" true
    (Metrics.quantile (Metrics.histogram reg "h2") 0.5 = None)

let sketch_relative_error () =
  (* 1..1000: the true q-quantile at rank r = floor(q * 999) is r + 1; the
     sketch must land within its documented relative-error bound. *)
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "lat" in
  for v = 1 to 1000 do
    Metrics.observe h (float_of_int v)
  done;
  List.iter
    (fun q ->
      let rank = int_of_float (q *. 999.0) in
      let true_v = float_of_int (rank + 1) in
      let est = Option.get (Metrics.quantile h q) in
      checkb
        (Printf.sprintf "q=%.3f: |%.3f - %.0f| within alpha" q est true_v)
        true
        (Float.abs (est -. true_v) /. true_v
        <= Metrics.histogram_alpha h +. 1e-9))
    [ 0.0; 0.5; 0.9; 0.99; 0.999; 1.0 ]

let sketch_merge_exact () =
  (* Per-bucket integer addition: a merged sketch equals the sketch of the
     concatenated stream, bit for bit. *)
  let observe_all h vs = List.iter (Metrics.observe h) vs in
  let a = Metrics.create () and b = Metrics.create () and c = Metrics.create () in
  let xs = [ 3.0; 14.0; 159.0; 0.0 ] and ys = [ 2.0; 71.0; 828.0; 14.0 ] in
  observe_all (Metrics.histogram a "h") xs;
  observe_all (Metrics.histogram b "h") ys;
  observe_all (Metrics.histogram c "h") (xs @ ys);
  Metrics.merge ~into:a b;
  checks "merge equals one-stream sketch"
    (Json.to_string (Metrics.to_json c))
    (Json.to_string (Metrics.to_json a))

let sketch_merge_alpha_mismatch () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.observe (Metrics.histogram ~alpha:0.01 a "h") 1.0;
  Metrics.observe (Metrics.histogram ~alpha:0.05 b "h") 1.0;
  let raised =
    try
      Metrics.merge ~into:a b;
      false
    with Invalid_argument msg ->
      checks "names the sketch" "Metrics.merge: \"h\" sketch accuracy differs" msg;
      true
  in
  checkb "alpha mismatch raises" true raised

let count_substring needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go from acc =
    if from + n > h then acc
    else if String.sub hay from n = needle then go (from + n) (acc + 1)
    else go (from + 1) acc
  in
  go 0 0

let sketch_json_roundtrip () =
  (* value_to_json -> text -> value_of_json must round-trip the bucket
     counts exactly, spell the overflow bound the OpenMetrics way, and
     re-derive identical quantiles from the decoded value. *)
  let reg = Metrics.create () in
  let h = Metrics.histogram reg "h" in
  List.iter (Metrics.observe h) [ 0.0; 5.0; 5.0; 123.0; 10_000.0 ];
  let v = List.assoc "h" (Metrics.snapshot reg) in
  let text = Json.to_string ~pretty:false (Metrics.value_to_json v) in
  checki "canonical +Inf overflow bound" 1
    (count_substring "{\"le\":\"+Inf\",\"count\":0}" text);
  checki "no nulls" 0 (count_substring "null" text);
  let decoded =
    match Result.bind (Json.of_string text) Metrics.value_of_json with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  (match (v, decoded) with
  | ( Metrics.Histogram { count; sum; min; max; zero; buckets; _ },
      Metrics.Histogram
        { count = c'; sum = s'; min = mn'; max = mx'; zero = z'; buckets = b'; _ } )
    ->
      checki "count" count c';
      checkf "sum" sum s';
      checkf "min" min mn';
      checkf "max" max mx';
      checki "zero bucket" zero z';
      checki "bucket list" (List.length buckets) (List.length b')
  | _ -> Alcotest.fail "expected histograms");
  List.iter
    (fun q ->
      checkf
        (Printf.sprintf "q=%.2f re-derives identically" q)
        (Option.get (Metrics.value_quantile v q))
        (Option.get (Metrics.value_quantile decoded q)))
    [ 0.0; 0.5; 0.9; 0.99; 1.0 ]

(* ---------------- qcheck properties ---------------- *)

let ops_gen =
  (* A registry "program": counters and integer-valued histogram streams
     (float sums stay exact below 2^53, so merge equality is bit-exact).
     Gauges are excluded by design — their merged [last] takes the
     source's value, which is deterministic only for a fixed merge
     order. *)
  QCheck2.Gen.(
    list_size (int_range 0 60)
      (triple bool (int_range 0 2) (int_range 1 1_000_000)))

let build ops =
  let r = Metrics.create () in
  List.iter
    (fun (is_hist, idx, v) ->
      if is_hist then
        Metrics.observe
          (Metrics.histogram r (Printf.sprintf "h%d" idx))
          (float_of_int v)
      else Metrics.incr ~by:(v mod 100) (Metrics.counter r (Printf.sprintf "c%d" idx)))
    ops;
  r

let reg_json r = Json.to_string ~pretty:false (Metrics.to_json r)

let merged l =
  let d = Metrics.create () in
  List.iter (fun r -> Metrics.merge ~into:d r) l;
  d

let prop_merge_commutative =
  QCheck2.Test.make ~name:"metrics: merge is commutative" ~count:100
    QCheck2.Gen.(pair ops_gen ops_gen)
    (fun (a, b) ->
      reg_json (merged [ build a; build b ])
      = reg_json (merged [ build b; build a ]))

let prop_merge_associative =
  QCheck2.Test.make ~name:"metrics: merge is associative" ~count:100
    QCheck2.Gen.(triple ops_gen ops_gen ops_gen)
    (fun (a, b, c) ->
      let left = merged [ build a; build b; build c ] in
      let right = merged [ build a; merged [ build b; build c ] ] in
      reg_json left = reg_json right)

let prop_merge_identity =
  QCheck2.Test.make ~name:"metrics: empty registry is the merge identity"
    ~count:100 ops_gen
    (fun a ->
      let r = build a in
      Metrics.merge ~into:r (Metrics.create ());
      reg_json r = reg_json (build a)
      && reg_json (merged [ build a ]) = reg_json (build a))

let prop_quantile_error_bound =
  QCheck2.Test.make ~name:"metrics: quantile within alpha relative error"
    ~count:200
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 200) (int_range 1 1_000_000))
        (float_range 0.0 1.0))
    (fun (vs, q) ->
      let reg = Metrics.create () in
      let h = Metrics.histogram reg "h" in
      List.iter (fun v -> Metrics.observe h (float_of_int v)) vs;
      let sorted = List.sort compare vs in
      let rank = int_of_float (q *. float_of_int (List.length vs - 1)) in
      let true_v = float_of_int (List.nth sorted rank) in
      let est = Option.get (Metrics.quantile h q) in
      Float.abs (est -. true_v) /. true_v
      <= Metrics.histogram_alpha h +. 1e-9)

(* ---------------- Obs spans ---------------- *)

let span_nesting () =
  let clock, advance = fake_clock () in
  let obs = Obs.create ~clock () in
  let o = Some obs in
  let instr = ref 100 in
  Obs.span o "outer"
    ~instructions:(fun () -> !instr)
    (fun () ->
      advance 0.5;
      Obs.span o "inner-1" (fun () ->
          advance 0.25;
          instr := !instr + 7);
      Obs.span o "inner-2" ~attrs:[ ("k", Json.Int 3) ] (fun () -> advance 0.125));
  match Obs.spans obs with
  | [ outer; i1; i2 ] ->
      checks "start order" "outer" outer.Obs.name;
      checks "then inner-1" "inner-1" i1.Obs.name;
      checks "then inner-2" "inner-2" i2.Obs.name;
      checkb "root has no parent" true (outer.Obs.parent = None);
      checkb "inner-1 under outer" true (i1.Obs.parent = Some outer.Obs.id);
      checkb "inner-2 under outer" true (i2.Obs.parent = Some outer.Obs.id);
      checki "root depth" 0 outer.Obs.depth;
      checki "child depth" 1 i1.Obs.depth;
      checki "default track" 0 outer.Obs.track;
      checkf "outer start" 0.0 outer.Obs.start_s;
      checkf "inner-1 start" 0.5 i1.Obs.start_s;
      checkf "inner-2 start" 0.75 i2.Obs.start_s;
      checkf "inner-1 duration" 0.25 i1.Obs.dur_s;
      checkf "inner-2 duration" 0.125 i2.Obs.dur_s;
      checkf "outer duration covers children" 0.875 outer.Obs.dur_s;
      checkb "instruction delta" true (outer.Obs.sp_instructions = Some 7);
      checkb "attrs kept" true (i2.Obs.attrs = [ ("k", Json.Int 3) ]);
      checkb "all closed" true
        (List.for_all (fun sp -> sp.Obs.closed) (Obs.spans obs))
  | l -> Alcotest.fail (Printf.sprintf "expected 3 spans, got %d" (List.length l))

let span_closes_on_exception () =
  let clock, advance = fake_clock () in
  let obs = Obs.create ~clock () in
  let o = Some obs in
  (try
     Obs.span o "boom" (fun () ->
         advance 1.0;
         failwith "inner failure")
   with Failure _ -> ());
  match Obs.spans obs with
  | [ sp ] ->
      checkb "closed despite raise" true sp.Obs.closed;
      checkf "duration recorded" 1.0 sp.Obs.dur_s
  | _ -> Alcotest.fail "expected exactly one span"

let span_add_attrs_innermost () =
  let clock, _ = fake_clock () in
  let obs = Obs.create ~clock () in
  let o = Some obs in
  Obs.span o "outer" (fun () ->
      Obs.span o "inner" (fun () -> Obs.add_attrs o [ ("x", Json.Int 1) ]));
  let inner =
    List.find (fun sp -> sp.Obs.name = "inner") (Obs.spans obs)
  and outer =
    List.find (fun sp -> sp.Obs.name = "outer") (Obs.spans obs)
  in
  checkb "attrs land on the innermost open span" true
    (inner.Obs.attrs = [ ("x", Json.Int 1) ]);
  checkb "not on the parent" true (outer.Obs.attrs = [])

let span_gc_delta () =
  (* Real clock: the span allocates heavily, so the recorded gc delta must
     show minor-heap traffic and the top-level close must refresh the
     allocation-rate gauge. *)
  let obs = Obs.create () in
  let sink = ref 0.0 in
  Obs.span (Some obs) "alloc" (fun () ->
      for _ = 1 to 10_000 do
        sink := !sink +. Array.fold_left ( +. ) 0.0 (Array.make 257 1.0)
      done);
  ignore (Sys.opaque_identity !sink);
  (match (List.hd (Obs.spans obs)).Obs.sp_gc with
  | Some gd ->
      checkb "minor words allocated" true (gd.Obs.gd_minor_words > 0.0);
      checkb "collection deltas are non-negative" true
        (gd.Obs.gd_minor_collections >= 0 && gd.Obs.gd_major_collections >= 0)
  | None -> Alcotest.fail "closed span carries a gc delta");
  match List.assoc_opt "runtime.alloc_rate" (Metrics.snapshot (Obs.metrics obs)) with
  | Some (Metrics.Gauge { last; samples; _ }) ->
      checkb "alloc rate sampled once" true (samples >= 1);
      checkb "alloc rate positive" true (last > 0.0)
  | _ -> Alcotest.fail "expected the runtime.alloc_rate gauge"

(* ---------------- adopt / tracks ---------------- *)

let adopt_grafts_worker_spans () =
  let clock, advance = fake_clock () in
  let parent = Obs.create ~clock () in
  Obs.span (Some parent) "root" (fun () -> advance 0.25);
  advance 0.75 (* clock now 1.0 *);
  let child = Obs.create ~clock ~epoch:(Obs.epoch parent) ~track:3 () in
  Obs.span (Some child) "work" (fun () ->
      advance 0.25;
      Obs.span (Some child) "work.inner" (fun () -> advance 0.25));
  Obs.adopt parent ~from:child;
  let spans = Obs.spans parent in
  checki "own span plus two adopted" 3 (List.length spans);
  let by_name n = List.find (fun (sp : Obs.span) -> sp.Obs.name = n) spans in
  let root = by_name "root" and w = by_name "work" and wi = by_name "work.inner" in
  checki "adopted spans keep their track" 3 w.Obs.track;
  checki "own spans stay on track 0" 0 root.Obs.track;
  checkf "shared epoch: timestamps comparable" 1.0 w.Obs.start_s;
  checkf "nested start preserved" 1.25 wi.Obs.start_s;
  checkb "adopted ids don't collide" true (w.Obs.id <> root.Obs.id);
  checkb "adopted parent links remapped" true (wi.Obs.parent = Some w.Obs.id);
  (* Every parent id must resolve within the merged context. *)
  let ids = List.map (fun (sp : Obs.span) -> sp.Obs.id) spans in
  checkb "span tree is well-formed" true
    (List.for_all
       (fun (sp : Obs.span) ->
         match sp.Obs.parent with None -> true | Some p -> List.mem p ids)
       spans)

let adopt_rejects_open_spans () =
  let clock, _ = fake_clock () in
  let parent = Obs.create ~clock () in
  let child = Obs.create ~clock ~epoch:(Obs.epoch parent) ~track:1 () in
  Obs.span (Some child) "open" (fun () ->
      let raised =
        try
          Obs.adopt parent ~from:child;
          false
        with Invalid_argument _ -> true
      in
      checkb "adopting a context with open spans raises" true raised)

(* ---------------- Disabled path ---------------- *)

let disabled_is_free () =
  (* With obs = None every entry point must be a no-op: no event objects,
     no closures, no boxing on the minor heap. One warm-up pass absorbs
     any one-time allocation, then a measured pass of 10k iterations must
     stay within noise (a strictly per-event allocation would cost >=20k
     words). *)
  let f = fun () -> 7 in
  let work () =
    for k = 1 to 10_000 do
      Obs.count None "vm.calls" k;
      Obs.observe None "vm.shadow_stack.depth" 3.0;
      Obs.set_gauge None "alloc.chunks.spare" 2.0;
      Obs.event None ~name:"cache.l1.misses" 4.0;
      Obs.add_attrs None [];
      ignore (Obs.span None "s" f : int)
    done
  in
  work ();
  let before = Gc.minor_words () in
  work ();
  let delta = Gc.minor_words () -. before in
  checkb
    (Printf.sprintf "no per-event allocation when disabled (%.0f words)" delta)
    true
    (delta < 256.0)

(* ---------------- Trace-event stream ---------------- *)

let ok = function Ok v -> v | Error e -> Alcotest.fail e
let phase e = ok (Json.get_string "ph" e)
let event_name e = ok (Json.get_string "name" e)

let args e =
  match Json.mem "args" e with
  | Some a -> a
  | None -> Alcotest.fail "event without args"

(* A finished trace is strict JSON: one array of events. *)
let trace_events text =
  match ok (Json.of_string text) with
  | Json.List events -> events
  | _ -> Alcotest.fail "trace is not a JSON list"

let trace_event_stream () =
  let clock, advance = fake_clock () in
  let buf = Buffer.create 512 in
  let obs = Obs.create ~clock ~trace:(Obs.Buffer buf) () in
  let o = Some obs in
  Obs.span o "run" (fun () ->
      Obs.count o "events.total" 3;
      Obs.event o ~name:"series.x" ~attrs:[ ("k", Json.Int 1) ] 42.0;
      Obs.span o "inner" (fun () -> advance 1.0));
  let worker = Obs.create ~clock ~epoch:(Obs.epoch obs) ~track:2 () in
  Obs.span (Some worker) "work" (fun () -> advance 0.5);
  Obs.adopt obs ~from:worker;
  Obs.finish obs;
  let text = Buffer.contents buf in
  (* Layout: "[" alone on line 1, one compact event per line, every
     event after the first led by ",", and "]" last. *)
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' text) in
  checks "line 1 opens the array" "[" (List.hd lines);
  checks "last line closes it" "]" (List.nth lines (List.length lines - 1));
  let events = trace_events text in
  checki "one line per event" (List.length events + 2) (List.length lines);
  List.iteri
    (fun k l ->
      if k >= 2 && k < List.length lines - 1 then
        checkb "later events start with a comma" true (l.[0] = ','))
    lines;
  let with_phase p = List.filter (fun e -> phase e = p) events in
  checki "one X per span" 3 (List.length (with_phase "X"));
  checki "X events carry gc deltas" 3
    (List.length
       (List.filter
          (fun e -> Json.mem "gc.minor_words" (args e) <> None)
          (with_phase "X")));
  (match with_phase "C" with
  | [ c ] ->
      checks "counter named for the series" "series.x" (event_name c);
      checkf "counter value" 42.0 (ok (Json.get_float "value" (args c)));
      checki "counter attrs" 1 (ok (Json.get_int "k" (args c)))
  | cs -> Alcotest.fail (Printf.sprintf "expected one C event, got %d" (List.length cs)));
  let metadata name = List.filter (fun e -> event_name e = name) (with_phase "M") in
  (* events.total plus the runtime.alloc_rate gauge the run span set. *)
  checki "one halo.metric per registered metric"
    (List.length (Metrics.snapshot (Obs.metrics obs)))
    (List.length (metadata "halo.metric"));
  checki "two registered metrics" 2 (List.length (metadata "halo.metric"));
  checki "one process_name" 1 (List.length (metadata "process_name"));
  let thread_names = metadata "thread_name" in
  checki "one thread_name per track" 2 (List.length thread_names);
  checkb "tracks named main and domain-2" true
    (List.sort compare
       (List.map
          (fun e -> (ok (Json.get_int "tid" e), ok (Json.get_string "name" (args e))))
          thread_names)
    = [ (0, "main"); (2, "domain-2") ])

(* A child of a traced context keeps its events until adopt writes them
   on its track, rebased onto the parent's timeline. *)
let child_events_adopted () =
  let clock, advance = fake_clock () in
  let buf = Buffer.create 512 in
  let obs = Obs.create ~clock ~trace:(Obs.Buffer buf) () in
  let child = Obs.child obs ~track:5 in
  checki "child track" 5 (Obs.track child);
  advance 2.0;
  Obs.event (Some child) ~name:"cache.l1.misses" ~attrs:[ ("accesses", Json.Int 9) ] 3.0;
  let grandchild = Obs.child child ~track:6 in
  Obs.event (Some grandchild) ~name:"series.y" 1.0;
  checkb "nothing written before adopt" false
    (List.exists (fun e -> phase e = "C") (trace_events (Buffer.contents buf ^ "]")));
  Obs.adopt child ~from:grandchild;
  Obs.adopt obs ~from:child;
  Obs.adopt obs ~from:child;
  Obs.finish obs;
  let cs = List.filter (fun e -> phase e = "C") (trace_events (Buffer.contents buf)) in
  checki "both events once" 2 (List.length cs);
  (match cs with
  | [ c; g ] ->
      checks "child's event first" "cache.l1.misses" (event_name c);
      checki "on the child's track" 5 (ok (Json.get_int "tid" c));
      checkf "value" 3.0 (ok (Json.get_float "value" (args c)));
      checki "attrs" 9 (ok (Json.get_int "accesses" (args c)));
      checkf "timestamp on the parent's timeline" 2e6 (ok (Json.get_float "ts" c));
      checki "grandchild's track kept" 6 (ok (Json.get_int "tid" g))
  | _ -> ())

let finish_closes_open_spans () =
  let clock, _ = fake_clock () in
  let buf = Buffer.create 256 in
  let obs = Obs.create ~clock ~trace:(Obs.Buffer buf) () in
  (* Simulate a failed run: enter spans without unwinding. *)
  (try
     Obs.span (Some obs) "outer" (fun () ->
         Obs.span (Some obs) "inner" (fun () -> raise Exit))
   with Exit -> ());
  Obs.finish obs;
  checkb "all spans closed after finish" true
    (List.for_all (fun sp -> sp.Obs.closed) (Obs.spans obs))

let empty_metrics_export_no_nulls () =
  (* Gauges/histograms that were registered but never updated carry
     [neg_infinity] maxima internally; the halo.metric event must report
     [samples = 0] / [count = 0] and omit max/last rather than emit JSON
     nulls that choke downstream trace consumers. *)
  let buf = Buffer.create 512 in
  let obs = Obs.create ~trace:(Obs.Buffer buf) () in
  let reg = Obs.metrics obs in
  ignore (Metrics.gauge reg "g.empty" : Metrics.gauge);
  ignore (Metrics.histogram reg "h.empty" : Metrics.histogram);
  Metrics.set (Metrics.gauge reg "g.live") 2.5;
  Obs.finish obs;
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  let line_of name =
    List.find (fun l -> count_substring (Printf.sprintf "%S" name) l = 1) lines
  in
  let g = line_of "g.empty" in
  checki "empty gauge: no null" 0 (count_substring "null" g);
  checki "empty gauge: samples 0" 1 (count_substring "\"samples\":0" g);
  checki "empty gauge: no max" 0 (count_substring "\"max\"" g);
  checki "empty gauge: no last value" 0 (count_substring "\"value\"" g);
  let h = line_of "h.empty" in
  checki "empty histogram: no null" 0 (count_substring "null" h);
  checki "empty histogram: count 0" 1 (count_substring "\"count\":0,\"sum\"" h);
  checki "empty histogram: no max" 0 (count_substring "\"max\"" h);
  let live = line_of "g.live" in
  checki "updated gauge still carries max" 1 (count_substring "\"max\"" live);
  checki "updated gauge still carries value" 1 (count_substring "\"value\"" live)

(* ---------------- Chrome trace export ---------------- *)

let chrome_trace_export () =
  let clock, advance = fake_clock () in
  let parent = Obs.create ~clock () in
  Obs.span (Some parent) "root" (fun () -> advance 0.25);
  advance 0.75;
  let child = Obs.create ~clock ~epoch:(Obs.epoch parent) ~track:3 () in
  Obs.span (Some child) "work" (fun () -> advance 0.5);
  Obs.adopt parent ~from:child;
  Obs.finish parent;
  let buf = Buffer.create 512 in
  Obs.export ~process_name:"test" (Obs.Buffer buf) parent;
  let events = trace_events (Buffer.contents buf) in
  let metadata = List.filter (fun e -> phase e = "M") events in
  let complete = List.filter (fun e -> phase e = "X") events in
  let named n = List.filter (fun e -> event_name e = n) metadata in
  checkb "process named" true
    (List.map (fun e -> ok (Json.get_string "name" (args e))) (named "process_name")
    = [ "test" ]);
  let thread_names =
    List.map
      (fun e -> (ok (Json.get_int "tid" e), ok (Json.get_string "name" (args e))))
      (named "thread_name")
  in
  checki "one thread_name per track" 2 (List.length thread_names);
  checkb "track 0 is main" true (List.assoc 0 thread_names = "main");
  checkb "track 3 is its domain" true (List.assoc 3 thread_names = "domain-3");
  checki "metric summaries ride along" 1 (List.length (named "halo.metric"));
  checki "one complete event per span" 2 (List.length complete);
  let work = List.find (fun e -> event_name e = "work") complete in
  checki "worker span on its own lane" 3 (ok (Json.get_int "tid" work));
  checkf "ts in microseconds" 1e6 (ok (Json.get_float "ts" work));
  checkf "dur in microseconds" 0.5e6 (ok (Json.get_float "dur" work));
  (* Every parent_id must resolve to a span_id in the same file. *)
  let arg_objs = List.map args complete in
  let ids = List.map (fun a -> ok (Json.get_int "span_id" a)) arg_objs in
  checkb "parent ids resolve" true
    (List.for_all
       (fun a ->
         match Json.mem "parent_id" a with
         | Some (Json.Int p) -> List.mem p ids
         | Some Json.Null | None -> true
         | Some _ -> false)
       arg_objs)

let tc name f = Alcotest.test_case name `Quick f

let qsuite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_merge_commutative;
      prop_merge_associative;
      prop_merge_identity;
      prop_quantile_error_bound;
    ]

let suite =
  [
    tc "metrics: counter" metrics_counter;
    tc "metrics: kind mismatch raises" metrics_kind_mismatch;
    tc "metrics: gauge last/max/samples" metrics_gauge;
    tc "metrics: sketch bucketing and zero bucket" sketch_basics;
    tc "metrics: sketch quantile error bound" sketch_relative_error;
    tc "metrics: sketch merge is exact" sketch_merge_exact;
    tc "metrics: merge alpha mismatch raises" sketch_merge_alpha_mismatch;
    tc "metrics: histogram JSON round-trip via +Inf" sketch_json_roundtrip;
    tc "obs: span nesting and ordering" span_nesting;
    tc "obs: span closes on exception" span_closes_on_exception;
    tc "obs: add_attrs targets innermost" span_add_attrs_innermost;
    tc "obs: spans carry gc deltas" span_gc_delta;
    tc "obs: adopt grafts worker spans" adopt_grafts_worker_spans;
    tc "obs: adopt rejects open spans" adopt_rejects_open_spans;
    tc "obs: disabled path allocates nothing" disabled_is_free;
    tc "obs: trace-event stream" trace_event_stream;
    tc "obs: finish closes open spans" finish_closes_open_spans;
    tc "obs: empty metrics export without nulls" empty_metrics_export_no_nulls;
    tc "obs: Chrome trace export" chrome_trace_export;
  ]
  @ qsuite
  @ [ tc "obs: child events adopted on their track" child_events_adopted ]
