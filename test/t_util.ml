(* Tests for halo_util: Rng, Stats, Bitset, Table, Dot. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf msg = check (Alcotest.float 1e-9) msg

(* ---------------- Rng ---------------- *)

let rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.next a) (Rng.next b)
  done

let rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  checkb "different seeds differ" false (Rng.next a = Rng.next b)

let rng_int_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 10_000 do
    let v = Rng.int r 13 in
    checkb "in range" true (v >= 0 && v < 13)
  done

let rng_int_in_bounds () =
  let r = Rng.create ~seed:8 in
  for _ = 1 to 1_000 do
    let v = Rng.int_in r (-5) 5 in
    checkb "in closed range" true (v >= -5 && v <= 5)
  done

let rng_int_in_singleton () =
  let r = Rng.create ~seed:9 in
  for _ = 1 to 100 do
    checki "collapsed range" 5 (Rng.int_in r 5 5)
  done

let rng_int_in_empty_range_rejected () =
  let r = Rng.create ~seed:1 in
  Alcotest.check_raises "lo > hi"
    (Invalid_argument "Rng.int_in: empty range [3, 2]") (fun () ->
      ignore (Rng.int_in r 3 2))

let rng_int_in_full_domain () =
  (* [min_int, max_int] makes [hi - lo] wrap; the draw must neither raise
     nor loop, and over a few hundred draws both signs appear. *)
  let r = Rng.create ~seed:10 in
  let neg = ref false and pos = ref false in
  for _ = 1 to 200 do
    if Rng.int_in r min_int max_int < 0 then neg := true else pos := true
  done;
  checkb "both signs seen" true (!neg && !pos)

let rng_int_in_wide_positive () =
  (* [0, max_int] holds max_int + 1 values, so span + 1 overflows. *)
  let r = Rng.create ~seed:11 in
  for _ = 1 to 200 do
    checkb "non-negative" true (Rng.int_in r 0 max_int >= 0)
  done

let rng_int_in_wide_negative () =
  let r = Rng.create ~seed:12 in
  for _ = 1 to 200 do
    checkb "non-positive" true (Rng.int_in r min_int 0 <= 0)
  done

let rng_int_in_near_max_int () =
  let r = Rng.create ~seed:13 in
  for _ = 1 to 200 do
    let v = Rng.int_in r (max_int - 3) max_int in
    checkb "no wraparound" true (v >= max_int - 3)
  done;
  let v = Rng.int_in r min_int (min_int + 2) in
  checkb "bottom of domain" true (v <= min_int + 2)

let rng_int_rejects_nonpositive () =
  let r = Rng.create ~seed:1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let rng_float_bounds () =
  let r = Rng.create ~seed:3 in
  for _ = 1 to 1_000 do
    let v = Rng.float r 2.5 in
    checkb "in range" true (v >= 0.0 && v < 2.5)
  done

let rng_split_independent () =
  let a = Rng.create ~seed:5 in
  let b = Rng.split a in
  checkb "split differs from parent" false (Rng.next a = Rng.next b)

let rng_split_labelled_stable () =
  (* A labelled split reads but does not advance the parent: the same
     label always denotes the same substream, and distinct labels give
     distinct streams. *)
  let parent = Rng.create ~seed:42 in
  let a1 = Rng.next (Rng.split ~label:"alpha" parent) in
  let b1 = Rng.next (Rng.split ~label:"beta" parent) in
  let a2 = Rng.next (Rng.split ~label:"alpha" parent) in
  checkb "distinct labels, distinct streams" false (a1 = b1);
  check Alcotest.int64 "same label denotes one stream" a1 a2

let rng_split_labelled_order_independent () =
  let draws seed order =
    let parent = Rng.create ~seed in
    List.sort compare
      (List.map (fun l -> (l, Rng.next (Rng.split ~label:l parent))) order)
  in
  check
    Alcotest.(list (pair string int64))
    "derivation order irrelevant"
    (draws 7 [ "a"; "b"; "c" ])
    (draws 7 [ "c"; "a"; "b" ]);
  (* The unlabelled form still advances the parent, so successive splits
     keep yielding fresh streams. *)
  let parent = Rng.create ~seed:7 in
  checkb "unlabelled splits advance the parent" false
    (Rng.next (Rng.split parent) = Rng.next (Rng.split parent))

let rng_choose_uniform_support () =
  let r = Rng.create ~seed:13 in
  let seen = Array.make 4 false in
  for _ = 1 to 1_000 do
    seen.(Rng.choose r [| 0; 1; 2; 3 |]) <- true
  done;
  checkb "all elements reachable" true (Array.for_all Fun.id seen)

(* ---------------- Stats ---------------- *)

let stats_median_odd () = checkf "median odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])

let stats_median_even () =
  checkf "median even" 2.5 (Stats.median [| 4.0; 1.0; 2.0; 3.0 |])

let stats_percentiles () =
  let xs = Array.init 101 float_of_int in
  checkf "p25" 25.0 (Stats.percentile xs 25.0);
  checkf "p75" 75.0 (Stats.percentile xs 75.0);
  checkf "p0" 0.0 (Stats.percentile xs 0.0);
  checkf "p100" 100.0 (Stats.percentile xs 100.0)

let stats_mean_stddev () =
  checkf "mean" 2.0 (Stats.mean [| 1.0; 2.0; 3.0 |]);
  checkf "stddev" 1.0 (Stats.stddev [| 1.0; 2.0; 3.0 |])

let stats_geomean () = checkf "geomean" 2.0 (Stats.geomean [| 1.0; 4.0 |])

let stats_empty_rejected () =
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats.mean: empty input")
    (fun () -> ignore (Stats.mean [||]))

let stats_summary_consistent () =
  let s = Stats.summarize [| 3.0; 1.0; 2.0; 4.0 |] in
  checkf "min" 1.0 s.Stats.min;
  checkf "max" 4.0 s.Stats.max;
  checkb "p25 <= median" true (s.Stats.p25 <= s.Stats.median);
  checkb "median <= p75" true (s.Stats.median <= s.Stats.p75)

let stats_nan_rejected () =
  (* NaN-contaminated quantiles are garbage under any sort order; the
     helpers must refuse rather than return a number. *)
  Alcotest.check_raises "percentile NaN"
    (Invalid_argument "Stats.percentile: NaN input") (fun () ->
      ignore (Stats.percentile [| 1.0; Float.nan; 2.0 |] 50.0));
  Alcotest.check_raises "median NaN"
    (Invalid_argument "Stats.percentile: NaN input") (fun () ->
      ignore (Stats.median [| Float.nan |]));
  Alcotest.check_raises "summarize NaN"
    (Invalid_argument "Stats.summarize: NaN input") (fun () ->
      ignore (Stats.summarize [| 0.0; Float.nan |]))

let stats_float_total_order () =
  (* Float.compare (not polymorphic compare) must order signed zeros and
     infinities numerically for quantile purposes. *)
  checkf "median around zero" 0.0
    (Stats.median [| Float.infinity; Float.neg_infinity; 0.0; -1.0; 1.0 |]);
  checkf "p0 is the min" Float.neg_infinity
    (Stats.percentile [| 1.0; Float.neg_infinity; 0.0 |] 0.0);
  checkf "p100 is the max" Float.infinity
    (Stats.percentile [| Float.infinity; 0.0; -3.5 |] 100.0)

(* ---------------- Bitset ---------------- *)

let bitset_set_get_clear () =
  let b = Bitset.create 70 in
  checkb "initially clear" false (Bitset.get b 69);
  Bitset.set b 69;
  checkb "set" true (Bitset.get b 69);
  checkb "neighbour untouched" false (Bitset.get b 68);
  Bitset.clear b 69;
  checkb "cleared" false (Bitset.get b 69)

let bitset_bounds () =
  let b = Bitset.create 8 in
  Alcotest.check_raises "oob" (Invalid_argument "Bitset: index 8 out of bounds [0,8)")
    (fun () -> Bitset.set b 8)

let bitset_cardinal_tolist () =
  let b = Bitset.create 16 in
  List.iter (Bitset.set b) [ 0; 3; 7; 15 ];
  checki "cardinal" 4 (Bitset.cardinal b);
  check (Alcotest.list Alcotest.int) "to_list" [ 0; 3; 7; 15 ] (Bitset.to_list b)

let bitset_clear_all () =
  let b = Bitset.create 32 in
  List.iter (Bitset.set b) [ 1; 2; 30 ];
  Bitset.clear_all b;
  checki "empty" 0 (Bitset.cardinal b)

(* ---------------- Table ---------------- *)

let table_renders () =
  let t = Table.create ~title:"T" ~headers:[ "a"; "bb" ] () in
  Table.add_row t [ "x"; "1" ];
  Table.add_row t [ "yyyy"; "22" ];
  let s = Table.render t in
  checkb "has title" true (String.length s > 0 && String.sub s 0 1 = "T");
  checkb "contains row" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 && String.contains l 'y'))

let table_arity_checked () =
  let t = Table.create ~headers:[ "a"; "b" ] () in
  Alcotest.check_raises "arity" (Invalid_argument "Table.add_row: arity mismatch")
    (fun () -> Table.add_row t [ "only one" ])

let table_fmt_pct () =
  check Alcotest.string "pct" "+4.23%" (Table.fmt_pct 0.0423);
  check Alcotest.string "neg pct" "-10.00%" (Table.fmt_pct (-0.1))

let table_fmt_bytes () =
  check Alcotest.string "bytes" "512B" (Table.fmt_bytes 512);
  check Alcotest.string "kib" "2.00KiB" (Table.fmt_bytes 2048);
  check Alcotest.string "mib" "2.05MiB" (Table.fmt_bytes 2149581)

(* ---------------- Dot ---------------- *)

let dot_renders () =
  let nodes =
    [
      { Dot.id = 0; label = "a"; group = Some 0; accesses = 10 };
      { Dot.id = 1; label = "b\"q"; group = None; accesses = 5 };
    ]
  in
  let edges = [ { Dot.src = 0; dst = 1; weight = 3 } ] in
  let s = Dot.render nodes edges in
  checkb "graph header" true (String.length s >= 5 && String.sub s 0 5 = "graph");
  checkb "escapes quotes" true
    (let ok = ref false in
     String.iteri (fun k c -> if c = '\\' && s.[k + 1] = '"' then ok := true) s;
     !ok)

let dot_min_weight_hides () =
  let nodes = [ { Dot.id = 0; label = "a"; group = None; accesses = 1 } ] in
  let edges = [ { Dot.src = 0; dst = 0; weight = 1 } ] in
  let s = Dot.render ~min_weight:10 nodes edges in
  checkb "edge hidden" false
    (String.split_on_char '\n' s
    |> List.exists (fun l ->
           let has_dashdash = ref false in
           String.iteri
             (fun k c -> if c = '-' && k + 1 < String.length l && l.[k + 1] = '-' then has_dashdash := true)
             l;
           !has_dashdash))

let dot_group_color_stable () =
  check Alcotest.string "same group same color" (Dot.group_color 3) (Dot.group_color 3)

(* ---------------- qcheck properties ---------------- *)

let prop_percentile_monotone =
  QCheck2.Test.make ~name:"stats: percentile is monotone in p" ~count:200
    QCheck2.Gen.(
      pair (list_size (int_range 1 20) (float_range (-100.) 100.))
        (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      let xs = Array.of_list xs in
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let prop_bitset_roundtrip =
  QCheck2.Test.make ~name:"bitset: to_list after sets = sorted distinct sets"
    ~count:200
    QCheck2.Gen.(list_size (int_range 0 50) (int_range 0 63))
    (fun idxs ->
      let b = Bitset.create 64 in
      List.iter (Bitset.set b) idxs;
      Bitset.to_list b = List.sort_uniq compare idxs)

let prop_rng_int_range =
  QCheck2.Test.make ~name:"rng: int in [0, bound)" ~count:500
    QCheck2.Gen.(pair (int_range 1 1_000_000) int)
    (fun (bound, seed) ->
      let r = Rng.create ~seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

(* ---------------- Json ---------------- *)

let checks = check Alcotest.string

let json_escapes_specials () =
  checks "quote and backslash" "\"a\\\"b\\\\c\""
    (Json.to_string ~pretty:false (Json.String "a\"b\\c"));
  checks "named control escapes" "\"l1\\nl2\\rl3\\tend\""
    (Json.to_string ~pretty:false (Json.String "l1\nl2\rl3\tend"));
  (* Control chars without a short escape use \u00XX (RFC 8259 §7). *)
  checks "u-escaped control chars" "\"\\u0001\\u0000\\u001f\""
    (Json.to_string ~pretty:false (Json.String "\x01\x00\x1f"));
  (* 0x20 and above pass through untouched. *)
  checks "printable untouched" "\"hello, world!\""
    (Json.to_string ~pretty:false (Json.String "hello, world!"))

let json_escapes_keys () =
  checks "object keys escaped" "{\"a\\\"b\":1}"
    (Json.to_string ~pretty:false (Json.Obj [ ("a\"b", Json.Int 1) ]))

let json_nonfinite_floats () =
  checks "nan" "null" (Json.to_string ~pretty:false (Json.Float Float.nan));
  checks "+inf" "null" (Json.to_string ~pretty:false (Json.Float Float.infinity));
  checks "-inf" "null"
    (Json.to_string ~pretty:false (Json.Float Float.neg_infinity));
  checks "finite floats survive" "1.5"
    (Json.to_string ~pretty:false (Json.Float 1.5));
  checks "integral floats keep a decimal" "2.0"
    (Json.to_string ~pretty:false (Json.Float 2.0))

let sample =
  Json.Obj
    [
      ("name", Json.String "x");
      ("xs", Json.List [ Json.Int 1; Json.Bool false; Json.Null ]);
      ("empty", Json.Obj []);
    ]

let json_compact () =
  checks "compact: single line, no padding"
    "{\"name\":\"x\",\"xs\":[1,false,null],\"empty\":{}}"
    (Json.to_string ~pretty:false sample)

let json_pretty () =
  checks "pretty: 2-space indent"
    "{\n  \"name\": \"x\",\n  \"xs\": [\n    1,\n    false,\n    null\n  ],\n\
    \  \"empty\": {}\n}"
    (Json.to_string ~pretty:true sample);
  checks "pretty is the default"
    (Json.to_string ~pretty:true sample)
    (Json.to_string sample)

let qsuite = List.map QCheck_alcotest.to_alcotest
    [ prop_percentile_monotone; prop_bitset_roundtrip; prop_rng_int_range ]

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "rng: deterministic" rng_deterministic;
    tc "rng: seed sensitivity" rng_seed_sensitivity;
    tc "rng: int bounds" rng_int_bounds;
    tc "rng: int_in bounds" rng_int_in_bounds;
    tc "rng: int_in collapsed range" rng_int_in_singleton;
    tc "rng: int_in empty range rejected" rng_int_in_empty_range_rejected;
    tc "rng: int_in full domain" rng_int_in_full_domain;
    tc "rng: int_in wide positive range" rng_int_in_wide_positive;
    tc "rng: int_in wide negative range" rng_int_in_wide_negative;
    tc "rng: int_in near-extreme ranges" rng_int_in_near_max_int;
    tc "rng: int rejects non-positive bound" rng_int_rejects_nonpositive;
    tc "rng: float bounds" rng_float_bounds;
    tc "rng: split independence" rng_split_independent;
    tc "rng: labelled split is stable" rng_split_labelled_stable;
    tc "rng: labelled split order-independent" rng_split_labelled_order_independent;
    tc "rng: choose covers support" rng_choose_uniform_support;
    tc "stats: median odd" stats_median_odd;
    tc "stats: median even" stats_median_even;
    tc "stats: percentiles" stats_percentiles;
    tc "stats: mean and stddev" stats_mean_stddev;
    tc "stats: geomean" stats_geomean;
    tc "stats: empty input rejected" stats_empty_rejected;
    tc "stats: summary consistent" stats_summary_consistent;
    tc "stats: NaN input rejected" stats_nan_rejected;
    tc "stats: numeric float ordering" stats_float_total_order;
    tc "bitset: set/get/clear" bitset_set_get_clear;
    tc "bitset: bounds checked" bitset_bounds;
    tc "bitset: cardinal and to_list" bitset_cardinal_tolist;
    tc "bitset: clear_all" bitset_clear_all;
    tc "table: renders" table_renders;
    tc "table: arity checked" table_arity_checked;
    tc "table: fmt_pct" table_fmt_pct;
    tc "table: fmt_bytes" table_fmt_bytes;
    tc "dot: renders with escaping" dot_renders;
    tc "dot: min_weight hides edges" dot_min_weight_hides;
    tc "dot: stable group colours" dot_group_color_stable;
    tc "json: escapes specials" json_escapes_specials;
    tc "json: escapes object keys" json_escapes_keys;
    tc "json: non-finite floats are null" json_nonfinite_floats;
    tc "json: compact output" json_compact;
    tc "json: pretty output" json_pretty;
  ]
  @ qsuite
