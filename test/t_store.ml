(* Tests for the persistent profile/plan store: canonical round-trips
   (property-tested over generated programs), a golden pin of the
   container bytes, one test per decode-rejection path plus a
   byte-mutation property over the decoder, the structural program
   digest's scale-insensitivity, weighted cross-run merging, and the
   content-addressed plan cache's record/apply and warmed-run
   guarantees. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let w name = Option.get (Workloads.find name)

let tmp suffix = Filename.temp_file "halo-store-test" suffix

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "halo-store-test-%d-%d" (Unix.getpid ()) !n)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Store.error_to_string e)

let err what = function
  | Ok _ -> Alcotest.fail ("expected a decode error: " ^ what)
  | Error e -> e

(* One profiled workload, shared by the codec tests. *)
let profiled ?(config = Profiler.default_config) name =
  let prog = (w name).Workload.make Workload.Test in
  (prog, config, Profiler.profile ~config prog)

let sorted_edges g = List.sort compare (Affinity_graph.edges g)

let graphs_equal a b =
  List.sort compare (Affinity_graph.nodes a)
  = List.sort compare (Affinity_graph.nodes b)
  && List.for_all
       (fun id -> Affinity_graph.node_accesses a id = Affinity_graph.node_accesses b id)
       (Affinity_graph.nodes a)
  && sorted_edges a = sorted_edges b

(* ---------------- round-trips ---------------- *)

let profile_round_trip () =
  let prog, config, result = profiled "ft" in
  let path = tmp ".bin" in
  let digest = Ir_digest.program prog in
  ok
    (Store.write_profile ~created:1.0 ~producer:"t" ~path ~program_digest:digest
       ~config result);
  let a = ok (Store.read_profile ~expect_program:digest path) in
  checki "total accesses" result.Profiler.total_accesses
    a.Store.result.Profiler.total_accesses;
  checki "tracked allocs" result.Profiler.tracked_allocs
    a.Store.result.Profiler.tracked_allocs;
  checki "instructions" result.Profiler.instructions
    a.Store.result.Profiler.instructions;
  checki "context count"
    (Context.count result.Profiler.contexts)
    (Context.count a.Store.result.Profiler.contexts);
  for id = 0 to Context.count result.Profiler.contexts - 1 do
    checkb "context sites" true
      (Context.sites result.Profiler.contexts id
      = Context.sites a.Store.result.Profiler.contexts id)
  done;
  checkb "filtered graph round-trips" true
    (graphs_equal result.Profiler.graph a.Store.result.Profiler.graph);
  checkb "raw graph round-trips" true
    (graphs_equal result.Profiler.raw_graph a.Store.result.Profiler.raw_graph);
  checkb "reported total survives" true
    (Affinity_graph.reported_total result.Profiler.graph
    = Affinity_graph.reported_total a.Store.result.Profiler.graph);
  (* Canonical form: re-encoding the decoded artifact reproduces the
     bytes exactly. *)
  let path2 = tmp ".bin" in
  ok
    (Store.write_profile ~created:1.0 ~producer:"t" ~path:path2
       ~program_digest:digest ~config a.Store.result);
  checks "byte-stable re-encode" (read_file path) (read_file path2);
  Sys.remove path;
  Sys.remove path2

let plan_round_trip_prop =
  QCheck2.Test.make ~name:"store: decode(encode plan) is structurally equal"
    ~count:8
    QCheck2.Gen.(int_range 1 1_000_000)
    (fun seed ->
      let case = Fuzz_gen.generate ~seed () in
      let plan = Pipeline.plan case.Fuzz_gen.test in
      let digest = Ir_digest.program case.Fuzz_gen.test in
      let path = tmp ".bin" in
      ok
        (Store.write_plan ~created:2.0 ~producer:"t" ~path
           ~program_digest:digest plan);
      let _header, decoded = ok (Store.read_plan ~expect_program:digest path) in
      let structurally_equal =
        decoded.Pipeline.config = plan.Pipeline.config
        && decoded.Pipeline.grouping = plan.Pipeline.grouping
        && decoded.Pipeline.selectors = plan.Pipeline.selectors
        && decoded.Pipeline.rewrite = plan.Pipeline.rewrite
        && graphs_equal decoded.Pipeline.profile.Profiler.graph
             plan.Pipeline.profile.Profiler.graph
        && graphs_equal decoded.Pipeline.profile.Profiler.raw_graph
             plan.Pipeline.profile.Profiler.raw_graph
      in
      (* And the canonical form is a fixed point of encode∘decode. *)
      let path2 = tmp ".bin" in
      ok
        (Store.write_plan ~created:2.0 ~producer:"t" ~path:path2
           ~program_digest:digest decoded);
      let byte_stable = String.equal (read_file path) (read_file path2) in
      Sys.remove path;
      Sys.remove path2;
      structurally_equal && byte_stable)

(* ---------------- golden digests ---------------- *)

let golden_digests () =
  (* Pinned digest values: a change here is a format break and must bump
     the artifact version. *)
  checks "default profiler-config digest" "a44f7ef8caf217822d7a520db0a30566"
    (Store.profile_config_digest Profiler.default_config);
  checks "default pipeline-config digest" "a81527018dbd6dbea7ec52cefe82937e"
    (Store.plan_config_digest Pipeline.default_config);
  checks "ft structural digest" "d200e61eabefa4299a677a021e2c937e"
    (Ir_digest.program ((w "ft").Workload.make Workload.Test))

(* ---------------- rejection paths ---------------- *)

(* A small recorded artifact to corrupt, one fresh copy per test. *)
let recorded () =
  let prog, config, result = profiled "ft" in
  let path = tmp ".bin" in
  ok
    (Store.write_profile ~created:1.0 ~producer:"t" ~path
       ~program_digest:(Ir_digest.program prog) ~config result);
  path

(* The same for a plan. *)
let planned () =
  let prog = (w "ft").Workload.make Workload.Test in
  let path = tmp ".bin" in
  ok
    (Store.write_plan ~created:1.0 ~producer:"t" ~path
       ~program_digest:(Ir_digest.program prog) (Pipeline.plan prog));
  path

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec find i = i + m <= n && (String.sub s i m = sub || find (i + 1)) in
  find 0

let replace_once ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - (i + m))

(* Independent FNV-1a-64 (the constants re-stated here on purpose: a
   drift in the library's constants must fail this pin). *)
let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let fnv_sub h s pos len =
  let h = ref h in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul (Int64.logxor !h (Int64.of_int (Char.code s.[i]))) fnv_prime
  done;
  !h

let u32_at s pos =
  let g i = Char.code s.[pos + i] in
  g 0 lor (g 1 lsl 8) lor (g 2 lsl 16) lor (g 3 lsl 24)

let i64_at s pos =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[pos + i]))
  done;
  !v

(* Container surgery. [split] cuts a valid image into its prefix (magic,
   version, header length, header) and its record bodies; [seal]
   reassembles them, re-framing every body and recomputing the trailer
   ([count] overrides the stated record count), so an edited body
   reaches the record decoders instead of stopping at the checksum. *)
let split data =
  let start = 13 + u32_at data 9 in
  let rec frames pos acc =
    let len = u32_at data pos in
    if len = 0 then List.rev acc
    else frames (pos + 4 + len) (String.sub data (pos + 4) len :: acc)
  in
  (String.sub data 0 start, frames start [])

let seal ?count prefix bodies =
  let b = Buffer.create 4096 in
  Buffer.add_string b prefix;
  let h = ref fnv_offset in
  List.iter
    (fun p ->
      let f = Buffer.create (4 + String.length p) in
      Wire.u32 f (String.length p);
      Buffer.add_string f p;
      let f = Buffer.contents f in
      h := fnv_sub !h f 0 (String.length f);
      Buffer.add_string b f)
    bodies;
  Wire.u32 b 0;
  Wire.varint b (Option.value count ~default:(List.length bodies));
  Wire.i64 b !h;
  Buffer.contents b

(* Rewrite the first record tagged [tag] through [f], then re-seal. *)
let forge_first ~tag f data =
  let prefix, bodies = split data in
  let forged = ref false in
  let bodies =
    List.map
      (fun p ->
        if !forged || Char.code p.[0] <> tag then p
        else begin
          forged := true;
          f p
        end)
      bodies
  in
  checkb (Printf.sprintf "found a 0x%02x record" tag) true !forged;
  seal prefix bodies

(* Re-encode a record body whose fields after its first [skip] bytes are
   all varints, mapping the decoded field list through [f]. *)
let revarint ~skip f body =
  let d = Wire.dec ~pos:skip body in
  let rec fields acc =
    if Wire.eof d then List.rev acc else fields (Wire.read_varint d :: acc)
  in
  let b = Buffer.create (String.length body) in
  Buffer.add_string b (String.sub body 0 skip);
  List.iter (Wire.varint b) (f (fields []));
  Buffer.contents b

let reject_truncated () =
  let path = recorded () in
  let data = read_file path in
  let prefix, bodies = split data in
  let trailer_len =
    let b = Buffer.create 8 in
    Wire.varint b (List.length bodies);
    4 + Buffer.length b + 8
  in
  let truncated what s =
    write_file path s;
    (match err what (Store.read_profile path) with
    | Store.Truncated -> ()
    | e -> Alcotest.fail (what ^ ": wanted Truncated, got " ^ Store.error_to_string e));
    if String.length s < String.length prefix then
      match err what (Store.read_header path) with
      | Store.Truncated -> ()
      | e ->
          Alcotest.fail
            (what ^ ": header read wanted Truncated, got " ^ Store.error_to_string e)
  in
  truncated "trailer dropped" (String.sub data 0 (String.length data - trailer_len));
  truncated "header cut short" (String.sub data 0 (String.length prefix - 1));
  truncated "header length cut short" (String.sub data 0 11);
  truncated "bare magic" "HALOSTOR";
  truncated "shorter than the magic" "HALO";
  truncated "empty file" "";
  Sys.remove path

let reject_bad_checksum () =
  let path = recorded () in
  let data = read_file path in
  (* Edit the trailer's stated checksum: every frame still walks. *)
  let b = Bytes.of_string data in
  let last = Bytes.length b - 1 in
  Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0x01));
  write_file path (Bytes.to_string b);
  (match err "trailer checksum edited" (Store.read_profile path) with
  | Store.Bad_checksum _ -> ()
  | e -> Alcotest.fail ("wanted Bad_checksum, got " ^ Store.error_to_string e));
  Sys.remove path

let reject_version_skew () =
  let path = recorded () in
  let data = read_file path in
  (* The header JSON states a future version under a current container
     byte; the header length is re-stated to match. *)
  let hlen = u32_at data 9 in
  let h =
    replace_once ~sub:"\"version\":2," ~by:"\"version\":99,"
      (String.sub data 13 hlen)
  in
  let b = Buffer.create (String.length data + 1) in
  Buffer.add_string b (String.sub data 0 9);
  Wire.u32 b (String.length h);
  Buffer.add_string b h;
  Buffer.add_string b
    (String.sub data (13 + hlen) (String.length data - 13 - hlen));
  write_file path (Buffer.contents b);
  (match err "header version 99" (Store.read_header path) with
  | Store.Version_skew { found = 99; supported = 2 } -> ()
  | e -> Alcotest.fail ("wanted Version_skew, got " ^ Store.error_to_string e));
  (match err "payload under header version 99" (Store.read_profile path) with
  | Store.Version_skew { found = 99; supported = 2 } -> ()
  | e -> Alcotest.fail ("wanted Version_skew, got " ^ Store.error_to_string e));
  Sys.remove path

let reject_wrong_kind () =
  let path = recorded () in
  (match err "profile read as plan" (Store.read_plan path) with
  | Store.Wrong_kind { found = "profile"; expected = "plan" } -> ()
  | e -> Alcotest.fail ("wanted Wrong_kind, got " ^ Store.error_to_string e));
  Sys.remove path

let reject_digest_mismatch () =
  let path = recorded () in
  let other = Ir_digest.program ((w "health").Workload.make Workload.Test) in
  (match
     err "foreign program" (Store.read_profile ~expect_program:other path)
   with
  | Store.Digest_mismatch { field = "program"; _ } -> ()
  | e -> Alcotest.fail ("wanted Digest_mismatch, got " ^ Store.error_to_string e));
  Sys.remove path

let reject_malformed_count () =
  let path = recorded () in
  let prefix, bodies = split (read_file path) in
  let n = List.length bodies in
  (* Checksum-valid trailers whose record count disagrees with the
     records present: one too many declared, then one record dropped. *)
  List.iter
    (fun (what, image) ->
      write_file path image;
      match err what (Store.read_profile path) with
      | Store.Malformed _ -> ()
      | e -> Alcotest.fail ("wanted Malformed, got " ^ Store.error_to_string e))
    [
      ("count one too high", seal ~count:(n + 1) prefix bodies);
      ( "record dropped",
        seal ~count:n prefix (List.filteri (fun i _ -> i <> 1) bodies) );
    ];
  Sys.remove path

let reject_io () =
  match err "missing file" (Store.read_profile (tmp_dir () ^ "/nope.bin")) with
  | Store.Io _ -> ()
  | e -> Alcotest.fail ("wanted Io, got " ^ Store.error_to_string e)

let reject_no_magic () =
  let path = tmp ".bin" in
  (* A JSONL artifact in the retired line format, and plain text. *)
  let legacy =
    "{\"format\":\"halo/store\",\"version\":1,\"kind\":\"profile\"}\n\
     {\"end\":true,\"lines\":0,\"checksum\":\"cbf29ce484222325\"}\n"
  in
  List.iter
    (fun (what, s) ->
      write_file path s;
      let check reader r =
        match r with
        | Error (Store.Malformed { line = 0; reason })
          when contains ~sub:"HALOSTOR" reason ->
            ()
        | Error e ->
            Alcotest.fail
              (Printf.sprintf "%s via %s: wanted Malformed at line 0 naming \
                               the magic, got %s"
                 what reader (Store.error_to_string e))
        | Ok _ -> Alcotest.fail (what ^ " decoded via " ^ reader)
      in
      check "read_header" (Result.map ignore (Store.read_header path));
      check "read_profile" (Result.map ignore (Store.read_profile path));
      check "read_plan" (Result.map ignore (Store.read_plan path)))
    [ ("legacy JSONL", legacy); ("plain text", "not an artifact at all\n") ];
  Sys.remove path

let reject_huge_header_length () =
  (* Magic, version 2, a header length of 2^31 - 1, then two bytes. *)
  let path = tmp ".bin" in
  write_file path "HALOSTOR\x02\xff\xff\xff\x7f{}";
  let before = Gc.allocated_bytes () in
  let r = Store.read_header path in
  let allocated = Gc.allocated_bytes () -. before in
  (match err "header length past the end" r with
  | Store.Truncated -> ()
  | e -> Alcotest.fail ("wanted Truncated, got " ^ Store.error_to_string e));
  checkb
    (Printf.sprintf "less than 1 MiB allocated (%.0f bytes)" allocated)
    true (allocated < 1048576.0);
  (match err "whole-file read" (Store.read_profile path) with
  | Store.Truncated -> ()
  | e -> Alcotest.fail ("wanted Truncated, got " ^ Store.error_to_string e));
  Sys.remove path

(* Checksum-valid records whose values the graph and context tables
   reject: each must decode to [Malformed] at its record, from a profile
   and from the profile embedded in a plan. *)
let hostile_records =
  [
    ("node count -1", 0x04, revarint ~skip:2 (function [ id; _ ] -> [ id; -1 ] | l -> l));
    ("edge weight -1", 0x05, revarint ~skip:2 (function [ x; y; _ ] -> [ x; y; -1 ] | l -> l));
    ("ctx with zero sites", 0x02, revarint ~skip:1 (function id :: _ -> [ id; 0 ] | l -> l));
    ( "node naming no context",
      0x04,
      revarint ~skip:2 (function [ _; n ] -> [ 1_000_000; n ] | l -> l) );
  ]

(* A checksum-valid profile artifact with a negative node count. *)
let hostile_profile () =
  let path = recorded () in
  let _, tag, f = List.hd hostile_records in
  write_file path (forge_first ~tag f (read_file path));
  path

let reject_hostile_records () =
  List.iter
    (fun (kind, path) ->
      let data = read_file path in
      List.iter
        (fun (what, tag, f) ->
          write_file path (forge_first ~tag f data);
          let what = kind ^ ": " ^ what in
          let r =
            if kind = "profile" then Result.map ignore (Store.read_profile path)
            else Result.map ignore (Store.read_plan path)
          in
          match err what r with
          | Store.Malformed { line; _ } when line >= 2 -> ()
          | e ->
              Alcotest.fail
                (what ^ ": wanted Malformed at a record, got "
               ^ Store.error_to_string e))
        hostile_records;
      Sys.remove path)
    [ ("profile", recorded ()); ("plan", planned ()) ]

(* ---------------- structural digest ---------------- *)

let digest_scale_insensitive () =
  List.iter
    (fun (wl : Workload.t) ->
      checks
        (wl.Workload.name ^ ": test and ref digests agree")
        (Ir_digest.program (wl.Workload.make Workload.Test))
        (Ir_digest.program (wl.Workload.make Workload.Ref)))
    Workloads.all

let digest_distinguishes_workloads () =
  let ds =
    List.map
      (fun (wl : Workload.t) ->
        Ir_digest.program (wl.Workload.make Workload.Test))
      Workloads.all
  in
  checki "all workload digests distinct"
    (List.length ds)
    (List.length (List.sort_uniq compare ds))

let digest_fuzz_pairs_agree () =
  for seed = 1 to 10 do
    let case = Fuzz_gen.generate ~seed () in
    checks
      (Printf.sprintf "seed %d: test/ref digests agree" seed)
      (Ir_digest.program case.Fuzz_gen.test)
      (Ir_digest.program case.Fuzz_gen.ref_)
  done

(* ---------------- merging ---------------- *)

let artifact_of ?config name =
  let prog, config, result =
    match config with
    | Some c -> profiled ~config:c name
    | None -> profiled name
  in
  let path = tmp ".bin" in
  ok
    (Store.write_profile ~created:1.0 ~producer:"t" ~path
       ~program_digest:(Ir_digest.program prog) ~config result);
  let a = ok (Store.read_profile path) in
  Sys.remove path;
  a

let merge_identity () =
  let a = artifact_of "ft" in
  let _config, m = ok (Store.merge_profiles [ (a, 1.0) ]) in
  checki "total accesses" a.Store.result.Profiler.total_accesses
    m.Profiler.total_accesses;
  checki "tracked allocs" a.Store.result.Profiler.tracked_allocs
    m.Profiler.tracked_allocs;
  checkb "raw graph unchanged" true
    (graphs_equal a.Store.result.Profiler.raw_graph m.Profiler.raw_graph);
  (* The filter re-runs over the merged raw graph; at weight 1 that is
     the filter of the original raw graph. *)
  checkb "refiltered like a single run" true
    (sorted_edges m.Profiler.graph
    = sorted_edges
        (Affinity_graph.filter_top a.Store.result.Profiler.raw_graph
           ~coverage:a.Store.config.Profiler.node_coverage))

let merge_weights_scale () =
  let a = artifact_of "ft" in
  let _config, doubled = ok (Store.merge_profiles [ (a, 1.0); (a, 1.0) ]) in
  checki "equal-weight self-merge doubles accesses"
    (2 * a.Store.result.Profiler.total_accesses)
    doubled.Profiler.total_accesses;
  let node = List.hd (Affinity_graph.nodes a.Store.result.Profiler.raw_graph) in
  checki "node accesses double"
    (2 * Affinity_graph.node_accesses a.Store.result.Profiler.raw_graph node)
    (Affinity_graph.node_accesses doubled.Profiler.raw_graph node);
  let _config, halved = ok (Store.merge_profiles [ (a, 0.5) ]) in
  checki "fractional weight rounds to nearest"
    (int_of_float
       (Float.round (0.5 *. float_of_int a.Store.result.Profiler.total_accesses)))
    halved.Profiler.total_accesses

let merge_across_seeds () =
  (* Same experiment observed under two input seeds: config digests agree
     (the seed is masked), so the runs merge. *)
  let a = artifact_of "ft" in
  let b =
    artifact_of ~config:{ Profiler.default_config with Profiler.seed = 5 } "ft"
  in
  checks "seed-masked config digests agree" a.Store.header.Store.config_digest
    b.Store.header.Store.config_digest;
  let _config, m = ok (Store.merge_profiles [ (a, 1.0); (b, 1.0) ]) in
  checki "totals add"
    (a.Store.result.Profiler.total_accesses
    + b.Store.result.Profiler.total_accesses)
    m.Profiler.total_accesses

let merge_rejects_foreign_program () =
  let a = artifact_of "ft" in
  let b = artifact_of "health" in
  (match
     err "cross-program merge" (Store.merge_profiles [ (a, 1.0); (b, 1.0) ])
   with
  | Store.Digest_mismatch { field = "program"; _ } -> ()
  | e -> Alcotest.fail ("wanted Digest_mismatch, got " ^ Store.error_to_string e))

let merge_rejects_bad_weights () =
  let a = artifact_of "ft" in
  checkb "empty input raises" true
    (match Store.merge_profiles [] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "non-positive weight raises" true
    (match Store.merge_profiles [ (a, 0.0) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------------- incremental merging ---------------- *)

let merge_incremental_matches_batch () =
  let a = artifact_of "ft" in
  let b =
    artifact_of ~config:{ Profiler.default_config with Profiler.seed = 5 } "ft"
  in
  let pairs = [ (a, 1.0); (b, 2.5) ] in
  let bc, batch = ok (Store.merge_profiles pairs) in
  let st = Store.merge_create () in
  List.iter (fun p -> ok (Store.merge_add st p)) pairs;
  checki "merge_count follows the fold" 2 (Store.merge_count st);
  checkb "merge_total_weight sums the weights" true
    (Store.merge_total_weight st = 3.5);
  let ic, inc = Store.merge_result st in
  checks "fold and batch agree on the config digest"
    (Store.profile_config_digest bc)
    (Store.profile_config_digest ic);
  checkb "fold and batch agree on the filtered graph" true
    (graphs_equal batch.Profiler.graph inc.Profiler.graph);
  checkb "fold and batch agree on the raw graph" true
    (graphs_equal batch.Profiler.raw_graph inc.Profiler.raw_graph);
  checki "fold and batch agree on accesses" batch.Profiler.total_accesses
    inc.Profiler.total_accesses;
  checki "fold and batch agree on tracked allocs" batch.Profiler.tracked_allocs
    inc.Profiler.tracked_allocs;
  checki "fold and batch agree on contexts"
    (Context.count batch.Profiler.contexts)
    (Context.count inc.Profiler.contexts)

let merge_result_is_a_snapshot () =
  let a = artifact_of "ft" in
  let st = Store.merge_create () in
  ok (Store.merge_add st (a, 1.0));
  let _, r1 = Store.merge_result st in
  let edges_before = sorted_edges r1.Profiler.raw_graph in
  let contexts_before = Context.count r1.Profiler.contexts in
  ok (Store.merge_add st (a, 3.0));
  let _, r2 = Store.merge_result st in
  checkb "later merges don't mutate earlier snapshots" true
    (sorted_edges r1.Profiler.raw_graph = edges_before
    && Context.count r1.Profiler.contexts = contexts_before);
  checki "weights accumulate across results"
    (4 * r1.Profiler.total_accesses)
    r2.Profiler.total_accesses

let merge_incremental_rejects () =
  let a = artifact_of "ft" in
  let foreign = artifact_of "health" in
  let st = Store.merge_create () in
  checkb "empty state has no result" true
    (match Store.merge_result st with
    | exception Invalid_argument _ -> true
    | _ -> false);
  checkb "non-finite weight raises" true
    (match Store.merge_add st (a, Float.nan) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  ok (Store.merge_add st (a, 1.0));
  (match err "cross-program fold" (Store.merge_add st (foreign, 1.0)) with
  | Store.Digest_mismatch { field = "program"; _ } -> ()
  | e -> Alcotest.fail ("wanted Digest_mismatch, got " ^ Store.error_to_string e));
  checki "rejected add leaves the fold untouched" 1 (Store.merge_count st)

(* ---------------- v2 binary codec ---------------- *)

let profile_round_trip_v2 () =
  let prog, config, result = profiled "ft" in
  let digest = Ir_digest.program prog in
  let path = tmp ".bin" in
  ok
    (Store.write_profile ~created:1.0 ~producer:"t" ~path
       ~program_digest:digest ~config result);
  let h = ok (Store.read_header path) in
  checki "header says v2" 2 h.Store.version;
  let a = ok (Store.read_profile ~expect_program:digest path) in
  checki "total accesses" result.Profiler.total_accesses
    a.Store.result.Profiler.total_accesses;
  checki "instructions" result.Profiler.instructions
    a.Store.result.Profiler.instructions;
  checki "context count"
    (Context.count result.Profiler.contexts)
    (Context.count a.Store.result.Profiler.contexts);
  for id = 0 to Context.count result.Profiler.contexts - 1 do
    checkb "context sites" true
      (Context.sites result.Profiler.contexts id
      = Context.sites a.Store.result.Profiler.contexts id)
  done;
  checkb "filtered graph round-trips" true
    (graphs_equal result.Profiler.graph a.Store.result.Profiler.graph);
  checkb "raw graph round-trips" true
    (graphs_equal result.Profiler.raw_graph a.Store.result.Profiler.raw_graph);
  let path2 = tmp ".bin" in
  ok
    (Store.write_profile ~created:1.0 ~producer:"t"
       ~path:path2 ~program_digest:digest ~config a.Store.result);
  checks "byte-stable re-encode" (read_file path) (read_file path2);
  Sys.remove path;
  Sys.remove path2

let golden_v2_container () =
  let prog, config, result = profiled "ft" in
  let path = tmp ".bin" in
  ok
    (Store.write_profile ~created:1700000000.0
       ~producer:"golden" ~path
       ~program_digest:(Ir_digest.program prog) ~config result);
  let data = read_file path in
  Sys.remove path;
  checks "magic bytes" "HALOSTOR" (String.sub data 0 8);
  checki "container version byte" 2 (Char.code data.[8]);
  let hlen = u32_at data 9 in
  checks "v2 header bytes"
    ("{\"format\":\"halo/store\",\"version\":2,\"kind\":\"profile\",\
      \"program\":\"" ^ Ir_digest.program prog
   ^ "\",\"config\":\"a44f7ef8caf217822d7a520db0a30566\",\
      \"created\":1700000000.0,\"producer\":\"golden\",\
      \"meta\":{\"profiler_config\":{\"affinity_distance\":128,\
      \"max_tracked_size\":4096,\"node_coverage\":0.90000000000000002,\
      \"seed\":1,\"sample_period\":1}}}")
    (String.sub data 13 hlen);
  (* Walk the record frames, recomputing the checksum independently of
     the library, and pin the trailer against it. *)
  let pos = ref (13 + hlen) and h = ref fnv_offset and n = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    let len = u32_at data !pos in
    if len = 0 then continue_ := false
    else begin
      h := fnv_sub !h data !pos (4 + len);
      pos := !pos + 4 + len;
      incr n
    end
  done;
  let p = ref (!pos + 4) in
  let zigzag = ref 0 and shift = ref 0 and fin = ref false in
  while not !fin do
    let b = Char.code data.[!p] in
    zigzag := !zigzag lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    incr p;
    if b land 0x80 = 0 then fin := true
  done;
  let count = (!zigzag lsr 1) lxor (- (!zigzag land 1)) in
  checki "trailer record count" !n count;
  checkb "trailer checksum matches an independent FNV-1a-64" true
    (Int64.equal (i64_at data !p) !h);
  checki "file ends right after the checksum" (String.length data) (!p + 8)

let reject_v2_truncated () =
  let path = recorded () in
  let data = read_file path in
  (* Chop into the trailer checksum... *)
  write_file path (String.sub data 0 (String.length data - 6));
  (match err "v2 trailer chopped" (Store.read_profile path) with
  | Store.Truncated -> ()
  | e -> Alcotest.fail ("wanted Truncated, got " ^ Store.error_to_string e));
  (* ...and into a record frame. *)
  write_file path (String.sub data 0 (String.length data / 2));
  (match err "v2 frame chopped" (Store.read_profile path) with
  | Store.Truncated -> ()
  | e -> Alcotest.fail ("wanted Truncated, got " ^ Store.error_to_string e));
  Sys.remove path

let reject_v2_bad_checksum () =
  let path = recorded () in
  let data = read_file path in
  let hlen = u32_at data 9 in
  (* Flip the first record's tag byte: frame lengths stay intact, so the
     walk succeeds and only the checksum can catch the corruption. *)
  let b = Bytes.of_string data in
  let tag_pos = 13 + hlen + 4 in
  Bytes.set b tag_pos (Char.chr (Char.code (Bytes.get b tag_pos) lxor 0x40));
  write_file path (Bytes.to_string b);
  (match err "v2 payload bit-flip" (Store.read_profile path) with
  | Store.Bad_checksum _ -> ()
  | e -> Alcotest.fail ("wanted Bad_checksum, got " ^ Store.error_to_string e));
  Sys.remove path

let reject_v2_version_skew () =
  let path = recorded () in
  let data = read_file path in
  let b = Bytes.of_string data in
  Bytes.set b 8 (Char.chr 9);
  write_file path (Bytes.to_string b);
  (match err "v2 container version 9" (Store.read_header path) with
  | Store.Version_skew { found = 9; supported = 2 } -> ()
  | e -> Alcotest.fail ("wanted Version_skew, got " ^ Store.error_to_string e));
  (match err "v2 payload under version 9" (Store.read_profile path) with
  | Store.Version_skew { found = 9; supported = 2 } -> ()
  | e -> Alcotest.fail ("wanted Version_skew, got " ^ Store.error_to_string e));
  Sys.remove path

(* The first ctx record's site count replaced by [count n], re-sealed:
   only the decoder's own bounds stand between the claimed count and an
   allocation of that size. *)
let forge_ctx_count data count =
  forge_first ~tag:0x02
    (revarint ~skip:1 (function id :: n :: sites -> id :: count n :: sites | l -> l))
    data

let reject_v2_oversized_count () =
  let path = recorded () in
  let data = read_file path in
  (* The re-framing itself is faithful: an unchanged count still reads. *)
  write_file path (forge_ctx_count data Fun.id);
  ignore (ok (Store.read_profile path) : Store.profile_artifact);
  List.iter
    (fun n ->
      write_file path (forge_ctx_count data (fun _ -> n));
      match err "ctx claims more sites than bytes" (Store.read_profile path) with
      | Store.Malformed _ -> ()
      | e -> Alcotest.fail ("wanted Malformed, got " ^ Store.error_to_string e))
    [ 1 lsl 40; max_int ];
  Sys.remove path

(* [data] with its header's [key] set to the JSON text [value] and the
   config digest restamped for [config], re-sealed: the edit reaches the
   config checks instead of stopping at [Digest_mismatch]. *)
let forge_header data ~key ~value config =
  let prefix, bodies = split data in
  let hdr = String.sub prefix 13 (String.length prefix - 13) in
  let set_field hdr key value =
    let k = Printf.sprintf "\"%s\":" key in
    let rec find i =
      if String.sub hdr i (String.length k) = k then i + String.length k else find (i + 1)
    in
    let start = find 0 in
    let rec stop i = if hdr.[i] = ',' || hdr.[i] = '}' then i else stop (i + 1) in
    let stop = stop start in
    String.sub hdr 0 start ^ value ^ String.sub hdr stop (String.length hdr - stop)
  in
  let hdr = set_field hdr key value in
  let hdr = set_field hdr "config" (Printf.sprintf "%S" (Store.profile_config_digest config)) in
  let b = Buffer.create (String.length prefix + 64) in
  Buffer.add_string b (String.sub prefix 0 9);
  Wire.u32 b (String.length hdr);
  Buffer.add_string b hdr;
  seal (Buffer.contents b) bodies

(* A header profiler config that the profiler or the noise filter would
   reject is [Malformed] at decode time, and an in-memory artifact
   carrying one is refused by the merge instead of raising from
   [Affinity_graph.filter_top]. *)
let reject_bad_profiler_config () =
  let path = recorded () in
  let data = read_file path in
  let good = ok (Store.read_profile path) in
  let c = good.Store.config in
  let cases =
    [
      ("node_coverage", "0.0", { c with Profiler.node_coverage = 0.0 });
      ("node_coverage", "-0.5", { c with Profiler.node_coverage = -0.5 });
      ("node_coverage", "1.5", { c with Profiler.node_coverage = 1.5 });
      ("node_coverage", "1e999", { c with Profiler.node_coverage = infinity });
      ("node_coverage", "-1e999", { c with Profiler.node_coverage = neg_infinity });
      ("affinity_distance", "0", { c with Profiler.affinity_distance = 0 });
      ("affinity_distance", "-4", { c with Profiler.affinity_distance = -4 });
      ("sample_period", "0", { c with Profiler.sample_period = 0 });
      ("max_tracked_size", "-1", { c with Profiler.max_tracked_size = -1 });
    ]
  in
  (* The forging itself is faithful: the valid values still read. *)
  write_file path (forge_header data ~key:"node_coverage" ~value:"0.9" c);
  ignore (ok (Store.read_profile path) : Store.profile_artifact);
  let malformed what = function
    | Error (Store.Malformed _) -> ()
    | Error e -> Alcotest.fail (what ^ ": wanted Malformed, got " ^ Store.error_to_string e)
    | Ok _ -> Alcotest.fail (what ^ ": decoded Ok")
  in
  List.iter
    (fun (key, value, bad) ->
      let what = Printf.sprintf "%s = %s" key value in
      write_file path (forge_header data ~key ~value bad);
      malformed ("read " ^ what) (Store.read_profile path);
      let forged =
        {
          good with
          Store.config = bad;
          header = { good.Store.header with Store.config_digest = Store.profile_config_digest bad };
        }
      in
      malformed ("merge " ^ what) (Store.merge_profiles [ (forged, 1.0) ]);
      malformed ("merge after a good one " ^ what)
        (Store.merge_profiles [ (good, 1.0); (forged, 1.0) ]))
    cases;
  (* JSON has no NaN; only an in-memory artifact can carry one. *)
  let forged = { good with Store.config = { c with Profiler.node_coverage = nan } } in
  malformed "merge node_coverage = nan" (Store.merge_profiles [ (forged, 1.0) ]);
  Sys.remove path

(* ---------------- byte-mutation property ---------------- *)

(* The decoder's contract on any input: [Ok] or a typed [Store.error],
   never another exception. Mutations start from a valid profile and a
   valid plan; the re-sealed variant edits one record body and
   recomputes the frame lengths and trailer, so the edit reaches the
   record decoders instead of stopping at [Bad_checksum]. The mutations
   themselves are {!Byte_mutation}'s. *)

let seed_images =
  lazy
    (let a = recorded () and b = planned () in
     let images = [| read_file a; read_file b |] in
     Sys.remove a;
     Sys.remove b;
     images)

(* (image, re-sealed?, record pick, mutations) to the mutated bytes. In
   the re-sealed variant the pick selects a record tag first, then a
   record carrying it, so rare records (meta, a plan's config) are
   reached as often as the many node and edge records. A re-sealed plan
   that still decodes reaches the derivation too. *)
let mutated (image, resealed, pick, muts) =
  let data = (Lazy.force seed_images).(image) in
  if not resealed then List.fold_left Byte_mutation.mutate data muts
  else
    let prefix, bodies = split data in
    let tags = List.sort_uniq compare (List.map (fun b -> b.[0]) bodies) in
    let tag = List.nth tags (pick mod List.length tags) in
    let holders = List.length (List.filter (fun b -> b.[0] = tag) bodies) in
    let target = pick / List.length tags mod holders in
    let seen = ref (-1) in
    seal prefix
      (List.map
         (fun b ->
           if b.[0] <> tag then b
           else begin
             incr seen;
             if !seen = target then List.fold_left Byte_mutation.mutate b muts else b
           end)
         bodies)

let decoder_mutation_prop =
  QCheck2.Test.make ~name:"store: decoders survive byte mutations" ~count:400
    ~print:(fun
        ((image, resealed, pick, muts) : int * bool * int * Byte_mutation.t list) ->
      Printf.sprintf "%s%s pick %d: %s"
        (if image = 0 then "profile" else "plan")
        (if resealed then " (re-sealed)" else "")
        pick
        (String.concat " " (List.map Byte_mutation.show muts)))
    QCheck2.Gen.(
      quad (int_bound 1) bool (int_bound 1_000_000)
        (list_size (int_range 1 3) Byte_mutation.gen))
    (fun case ->
      let path = tmp ".bin" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          write_file path (mutated case);
          let survives name read =
            match read () with
            | Ok _ | Error (_ : Store.error) -> true
            | exception e ->
                QCheck2.Test.fail_reportf "%s raised %s" name
                  (Printexc.to_string e)
          in
          survives "read_header" (fun () -> Store.read_header path)
          && survives "read_profile" (fun () -> Store.read_profile path)
          && survives "read_plan" (fun () -> Store.read_plan path)))

(* ---------------- batch merging ---------------- *)

let artifact_seeded name seed =
  artifact_of
    ~config:{ Profiler.default_config with Profiler.seed = seed }
    name

let merged_bytes digest merged =
  let path = tmp ".bin" in
  let config, result = merged in
  ok
    (Store.write_profile ~created:9.0 ~producer:"t" ~path
       ~program_digest:digest ~config result);
  let bytes = read_file path in
  Sys.remove path;
  bytes

let batch_merge_byte_identity () =
  let inputs =
    List.init 12 (fun k ->
        let a = artifact_seeded "ft" (k + 1) in
        (a, if k mod 3 = 0 then 2.5 else 1.0))
  in
  let digest = (fst (List.hd inputs)).Store.header.Store.program_digest in
  (* The reference: the public one-artifact-at-a-time fold. *)
  let st = Store.merge_create () in
  List.iter (fun input -> ok (Store.merge_add st input)) inputs;
  let reference = merged_bytes digest (Store.merge_result st) in
  checks "batch merge is byte-identical to the fold" reference
    (merged_bytes digest (ok (Store.merge_profiles inputs)))

let batch_merge_cites_first_bad_input () =
  let a = artifact_seeded "ft" 1
  and foreign1 = artifact_seeded "health" 1
  and foreign2 = artifact_seeded "povray" 1 in
  let digest x = x.Store.header.Store.program_digest in
  match
    err "merge with two foreign inputs"
      (Store.merge_profiles [ (a, 1.0); (foreign1, 1.0); (foreign2, 1.0) ])
  with
  | Store.Digest_mismatch { field = "program"; found; expected } ->
      checks "cites the first foreign input" (digest foreign1) found;
      checks "against the first input" (digest a) expected
  | e -> Alcotest.fail ("wanted Digest_mismatch, got " ^ Store.error_to_string e)

let merge_adopt_resumes () =
  let a = artifact_seeded "ft" 1 and b = artifact_seeded "ft" 2 in
  (* Fold a+b, persist, re-adopt, fold nothing more: the adopted state
     must report the original mass and count and merge to the same
     bytes. *)
  let st = Store.merge_create () in
  ok (Store.merge_add st (a, 1.5));
  ok (Store.merge_add st (b, 1.0));
  let digest = a.Store.header.Store.program_digest in
  let config, result = Store.merge_result st in
  let path = tmp ".bin" in
  ok
    (Store.write_profile ~created:0.0 ~producer:"t" ~path
       ~program_digest:digest ~config result);
  let saved = ok (Store.read_profile path) in
  Sys.remove path;
  let st2 = Store.merge_create () in
  ok
    (Store.merge_adopt st2 ~mass:(Store.merge_total_weight st)
       ~count:(Store.merge_count st) saved);
  checki "adopted count" (Store.merge_count st) (Store.merge_count st2);
  checkb "adopted mass" true
    (Float.equal (Store.merge_total_weight st) (Store.merge_total_weight st2));
  checks "adopted state merges to the same bytes"
    (merged_bytes digest (config, result))
    (merged_bytes digest (Store.merge_result st2));
  (* Folding on after the adoption is folding on from the original. *)
  let c = artifact_seeded "ft" 3 in
  ok (Store.merge_add st (c, 2.0));
  ok (Store.merge_add st2 (c, 2.0));
  checks "a fold continued after adoption matches the uninterrupted one"
    (merged_bytes digest (Store.merge_result st))
    (merged_bytes digest (Store.merge_result st2));
  (* A foreign aggregate is refused without touching the state. *)
  let foreign = artifact_seeded "health" 1 in
  (match
     err "foreign adoption"
       (Store.merge_adopt st2 ~mass:1.0 ~count:1 foreign)
   with
  | Store.Digest_mismatch { field = "program"; _ } -> ()
  | e -> Alcotest.fail ("wanted Digest_mismatch, got " ^ Store.error_to_string e));
  checki "a refused adoption adds no profiles" (Store.merge_count st)
    (Store.merge_count st2)

(* ---------------- plan cache ---------------- *)

let run_json m = Json.to_string (Runner.to_json m)

let profile_runs obs =
  Metrics.counter_value (Metrics.counter (Obs.metrics obs) "profile.runs")

let is_plan_entry f = Filename.check_suffix f ".plan.bin"

(* A HALO run under the plan the cache source answers with. *)
let cached_run ?obs ?pipeline_config src w =
  let plan = Runner.plan_halo ?obs ~plan_source:src ?pipeline_config w in
  Runner.run ?obs ?pipeline_config ~plan:(Runner.Halo_plan plan) w Runner.Halo

let cache_record_apply_equivalence () =
  let hw = w "ft" in
  let cache = Plan_cache.create (tmp_dir ()) in
  let src = Plan_cache.source cache in
  let cold = cached_run src hw in
  let warm = cached_run src hw in
  checks "cached plan reproduces the measurement bit for bit" (run_json cold)
    (run_json warm);
  let s = Plan_cache.stats cache in
  checki "one miss" 1 s.Plan_cache.misses;
  checki "one store" 1 s.Plan_cache.stores;
  checki "one hit" 1 s.Plan_cache.hits;
  (* The artifact on disk, decoded and measured under, is the apply
     phase — and must measure identically too. *)
  let entry =
    match
      Sys.readdir (Plan_cache.dir cache)
      |> Array.to_list |> List.filter is_plan_entry
    with
    | [ f ] -> Filename.concat (Plan_cache.dir cache) f
    | l -> Alcotest.fail (Printf.sprintf "expected 1 cache entry, found %d" (List.length l))
  in
  let _header, plan = ok (Store.read_plan entry) in
  let applied =
    Runner.run ~plan:(Runner.Halo_plan plan) hw Runner.Halo
  in
  checks "applied artifact measures identically" (run_json cold)
    (run_json applied)

let cache_warmed_run_never_profiles () =
  let hw = w "ft" in
  let cache = Plan_cache.create (tmp_dir ()) in
  let src = Plan_cache.source cache in
  let obs_cold = Obs.create () in
  ignore (cached_run ~obs:obs_cold src hw : Runner.measurement);
  checki "cold run profiles once" 1 (profile_runs obs_cold);
  let obs_warm = Obs.create () in
  ignore (cached_run ~obs:obs_warm src hw : Runner.measurement);
  checki "warm run never profiles" 0 (profile_runs obs_warm)

let cache_corrupt_entry_is_a_miss () =
  let hw = w "ft" in
  let cache = Plan_cache.create (tmp_dir ()) in
  let src = Plan_cache.source cache in
  let cold = cached_run src hw in
  let entry =
    Filename.concat (Plan_cache.dir cache)
      (List.find is_plan_entry
         (Array.to_list (Sys.readdir (Plan_cache.dir cache))))
  in
  let bytes = read_file entry in
  write_file entry (String.sub bytes 0 (String.length bytes / 2));
  let recovered = cached_run src hw in
  checks "recomputed past the torn entry" (run_json cold) (run_json recovered);
  let s = Plan_cache.stats cache in
  checki "torn entry read as a miss" 2 s.Plan_cache.misses;
  checki "and was re-stored" 2 s.Plan_cache.stores;
  checkb "entry readable again" true
    (match Store.read_plan entry with Ok _ -> true | Error _ -> false)

let cache_eviction_bounds_entries () =
  let hw = w "ft" in
  let cache = Plan_cache.create ~max_entries:1 (tmp_dir ()) in
  let src = Plan_cache.source cache in
  ignore (cached_run src hw : Runner.measurement);
  let cfg2 =
    { Pipeline.default_config with Pipeline.min_edge_frac = 2e-4 }
  in
  ignore
    (cached_run ~pipeline_config:cfg2 src hw : Runner.measurement);
  let entries =
    Sys.readdir (Plan_cache.dir cache)
    |> Array.to_list |> List.filter is_plan_entry
  in
  checki "bounded to max_entries" 1 (List.length entries);
  checkb "eviction counted" true ((Plan_cache.stats cache).Plan_cache.evictions >= 1)

let cache_concurrent_stats_obs_agree () =
  (* Four domains hammer one bounded cache with distinct keys: every
     lookup/store goes through a worker-private obs context, and after
     the join the merged [store.cache.*] counters must agree exactly
     with the cache's own thread-safe stats ledger. *)
  let program = (w "ft").Workload.make Workload.Test in
  let cache = Plan_cache.create ~max_entries:2 (tmp_dir ()) in
  let src = Plan_cache.source cache in
  let result =
    Profiler.profile ~config:Pipeline.default_config.Pipeline.profiler program
  in
  let configs =
    List.init 6 (fun k ->
        {
          Pipeline.default_config with
          Pipeline.min_edge_frac = 1e-4 *. float_of_int (k + 1);
        })
  in
  let plans = List.map (fun c -> (c, Pipeline.derive ~config:c result)) configs in
  let obs = Obs.create () in
  ignore
    (Par.map_obs ~obs ~jobs:4
       (fun wobs (c, plan) ->
         ignore (src.Pipeline.lookup wobs program c : Pipeline.plan option);
         src.Pipeline.store wobs program c plan;
         ignore (src.Pipeline.lookup wobs program c : Pipeline.plan option))
       plans
      : unit list);
  let s = Plan_cache.stats cache in
  let counter name =
    Metrics.counter_value (Metrics.counter (Obs.metrics obs) name)
  in
  checkb "evictions happened" true (s.Plan_cache.evictions >= 1);
  checki "stats and obs agree on evictions" s.Plan_cache.evictions
    (counter "store.cache.evictions");
  checki "stats and obs agree on hits" s.Plan_cache.hits
    (counter "store.cache.hits");
  checki "stats and obs agree on misses" s.Plan_cache.misses
    (counter "store.cache.misses");
  checki "stats and obs agree on stores" s.Plan_cache.stores
    (counter "store.cache.stores");
  checki "every key was looked up twice and stored once"
    (2 * List.length configs)
    (s.Plan_cache.hits + s.Plan_cache.misses);
  checki "stores" (List.length configs) s.Plan_cache.stores

let cache_stats_persist_across_processes () =
  let dir = tmp_dir () in
  let program = (w "ft").Workload.make Workload.Test in
  let c = Pipeline.default_config in
  let cache = Plan_cache.create dir in
  let src = Plan_cache.source cache in
  ignore (src.Pipeline.lookup None program c : Pipeline.plan option);
  let plan = Pipeline.plan ~config:c program in
  src.Pipeline.store None program c plan;
  ignore (src.Pipeline.lookup None program c : Pipeline.plan option);
  Plan_cache.save_stats cache;
  (match Plan_cache.load_stats dir with
  | None -> Alcotest.fail "stats.json not written"
  | Some s ->
      checki "persisted hits" 1 s.Plan_cache.hits;
      checki "persisted misses" 1 s.Plan_cache.misses;
      checki "persisted stores" 1 s.Plan_cache.stores);
  (* A fresh handle (a new process, as far as the cache can tell) starts
     its own counters at zero but reads the saved ledger as a baseline. *)
  let reopened = Plan_cache.create dir in
  checki "process stats start at zero" 0
    (Plan_cache.stats reopened).Plan_cache.hits;
  checki "lifetime stats carry the saved ledger" 1
    (Plan_cache.lifetime_stats reopened).Plan_cache.hits;
  checkb "stats.json is not a cache entry" true
    (not (List.mem "stats.json" (Plan_cache.entry_names reopened)));
  checki "one plan entry listed" 1
    (List.length (Plan_cache.entry_names reopened))

let cache_eviction_name_tie_break () =
  (* Three entries forced onto one mtime second, then a fourth store
     with a cap of two: of the tied entries, exactly the
     lexicographically-last name survives — eviction order is
     deterministic, not readdir luck. *)
  let program = (w "ft").Workload.make Workload.Test in
  let dir = tmp_dir () in
  let unbounded = Plan_cache.create dir in
  let src = Plan_cache.source unbounded in
  let result =
    Profiler.profile ~config:Pipeline.default_config.Pipeline.profiler program
  in
  let configs =
    List.init 3 (fun k ->
        {
          Pipeline.default_config with
          Pipeline.min_edge_frac = 1e-4 *. float_of_int (k + 1);
        })
  in
  List.iter
    (fun c -> src.Pipeline.store None program c (Pipeline.derive ~config:c result))
    configs;
  let names = List.sort compare (Plan_cache.entry_names unbounded) in
  checki "three entries stored" 3 (List.length names);
  List.iter
    (fun n -> Unix.utimes (Filename.concat dir n) 1000.0 1000.0)
    names;
  let bounded = Plan_cache.create ~max_entries:2 dir in
  let bsrc = Plan_cache.source bounded in
  let c4 = { Pipeline.default_config with Pipeline.min_edge_frac = 9e-4 } in
  bsrc.Pipeline.store None program c4 (Pipeline.derive ~config:c4 result);
  let survivors = Plan_cache.entry_names bounded in
  checki "bounded to max_entries" 2 (List.length survivors);
  let new_entry =
    Ir_digest.program program ^ "-" ^ Store.plan_config_digest c4 ^ ".plan.bin"
  in
  checkb "fresh store survives" true (List.mem new_entry survivors);
  checkb "largest name among the mtime ties survives" true
    (List.mem (List.nth names 2) survivors);
  checki "evictions counted" 2 (Plan_cache.stats bounded).Plan_cache.evictions

let cache_ignores_stray_jsonl () =
  (* A [.plan.jsonl] file under the very key a lookup wants, older than
     every entry in a one-entry cache: it is never read, listed, counted
     or evicted. *)
  let program = (w "ft").Workload.make Workload.Test in
  let dir = tmp_dir () in
  let cache = Plan_cache.create ~max_entries:1 dir in
  let src = Plan_cache.source cache in
  let c = Pipeline.default_config in
  let stray =
    Filename.concat dir
      (Ir_digest.program program ^ "-" ^ Store.plan_config_digest c
     ^ ".plan.jsonl")
  in
  let stray_bytes = "{\"format\":\"halo/store\",\"version\":1}\n" in
  write_file stray stray_bytes;
  Unix.utimes stray 1000.0 1000.0;
  checkb "stray file is not listed" true (Plan_cache.entry_names cache = []);
  checkb "lookup under the stray file's key misses" true
    (Option.is_none (src.Pipeline.lookup None program c));
  checki "counted as a miss" 1 (Plan_cache.stats cache).Plan_cache.misses;
  let result = Profiler.profile ~config:c.Pipeline.profiler program in
  let c2 = { c with Pipeline.min_edge_frac = 2e-4 } in
  List.iter
    (fun c -> src.Pipeline.store None program c (Pipeline.derive ~config:c result))
    [ c; c2 ];
  checki "one entry listed" 1 (List.length (Plan_cache.entry_names cache));
  checki "one eviction, of a .plan.bin entry" 1
    (Plan_cache.stats cache).Plan_cache.evictions;
  checkb "stray file survives eviction untouched" true
    (Sys.file_exists stray && read_file stray = stray_bytes)

(* ---------------- plans are derived on read ---------------- *)

let ft_program () = (w "ft").Workload.make Workload.Test
let ft_plan = lazy (Pipeline.plan (ft_program ()))

(* A profile of single-site contexts, the [i]th holding site [base + i]
   with the [i]th (accesses, edge weight) pair of [weights], linked to
   context [i - 1] ([star]: to context 0) by that edge weight. *)
let shaped_result ?(star = false) ~base weights =
  let contexts = Context.create () and graph = Affinity_graph.create () in
  List.iteri
    (fun i (accesses, edge) ->
      let id = Context.intern contexts [| base + i |] in
      Affinity_graph.add_access_n graph id accesses;
      if i > 0 then
        Affinity_graph.add_affinity_n graph (if star then 0 else id - 1) id edge)
    weights;
  let total = List.fold_left (fun acc (a, _) -> acc + a) 0 weights in
  {
    Profiler.graph;
    raw_graph = graph;
    contexts;
    total_accesses = total;
    tracked_allocs = List.length weights;
    instructions = total;
  }

(* [n] contexts in an affinity chain of equal weights. Eighty of them
   group into more monitored sites than the 64-bit group-state vector
   holds; ten from [base] 1000 (0x3e8) name sites ft lacks. *)
let crafted_result ~n ~base = shaped_result ~base (List.init n (fun _ -> (1000, 1000)))

(* The same as a checksum-valid profile artifact under ft's digest. *)
let crafted_profile ~n ~base =
  let path = tmp ".bin" in
  ok
    (Store.write_profile ~created:1.0 ~producer:"t" ~path
       ~program_digest:(Ir_digest.program (ft_program ()))
       ~config:Profiler.default_config (crafted_result ~n ~base));
  path

(* A plan artifact embedding [profile], written where the plan cache in
   [dir] looks up ft's stock plan. *)
let plan_entry ~dir profile =
  let program = ft_program () in
  let pd = Ir_digest.program program in
  let path =
    Filename.concat dir
      (pd ^ "-" ^ Store.plan_config_digest Pipeline.default_config ^ ".plan.bin")
  in
  ok
    (Store.write_plan ~created:1.0 ~producer:"t" ~path ~program_digest:pd
       { (Lazy.force ft_plan) with Pipeline.profile });
  path

(* A cache whose ft entry is refused: the lookup misses, the recomputed
   stock plan overwrites the entry, and the next lookup hits. *)
let cache_recovers what cache =
  let program = ft_program () and src = Plan_cache.source cache in
  let plan = Pipeline.plan ~source:src program in
  checkb (what ^ ": recomputed the stock plan") true
    (plan.Pipeline.rewrite = (Lazy.force ft_plan).Pipeline.rewrite);
  checkb (what ^ ": the overwritten entry hits") true
    (Option.is_some (src.Pipeline.lookup None program Pipeline.default_config));
  let s = Plan_cache.stats cache in
  checki (what ^ ": one miss") 1 s.Plan_cache.misses;
  checki (what ^ ": one store") 1 s.Plan_cache.stores;
  checki (what ^ ": one hit") 1 s.Plan_cache.hits

let malformed_at_0 what ?sub r =
  match err what r with
  | Store.Malformed { line = 0; reason }
    when Option.fold ~none:true ~some:(fun sub -> contains ~sub reason) sub ->
      ()
  | e -> Alcotest.fail (what ^ ": wanted Malformed at line 0, got " ^ Store.error_to_string e)

(* The fields derivation decides; a plan also carries its profile. *)
let same_derivation (a : Pipeline.plan) (b : Pipeline.plan) =
  a.Pipeline.grouping = b.Pipeline.grouping
  && a.Pipeline.selectors = b.Pipeline.selectors
  && a.Pipeline.rewrite = b.Pipeline.rewrite

let capped_derivation (plan : Pipeline.plan) =
  let c = plan.Pipeline.config in
  let groups = Array.length plan.Pipeline.grouping.Grouping.groups in
  Pipeline.derive
    ~config:
      {
        c with
        Pipeline.grouping =
          { c.Pipeline.grouping with Grouping.max_groups = Some groups };
      }
    plan.Pipeline.profile

(* Eighty chained contexts group in pairs into 80 monitored sites; the
   budget keeps the 32 most popular pairs, and the rest is ungrouped. *)
let over_budget_profile_fits () =
  let profile = crafted_result ~n:80 ~base:1000 in
  let plan = Pipeline.derive ~config:Pipeline.default_config profile in
  checki "32 groups fit" 32 (Array.length plan.Pipeline.grouping.Grouping.groups);
  checki "64 bits" Rewrite.max_bits plan.Pipeline.rewrite.Rewrite.nbits;
  checki "64 monitored sites" 64
    (List.length (Identify.monitored_sites plan.Pipeline.selectors));
  checki "16 contexts ungrouped" 16
    (List.length plan.Pipeline.grouping.Grouping.ungrouped);
  checkb "the caller's config" true (plan.Pipeline.config = Pipeline.default_config);
  checkb "the derivation under that group cap" true
    (same_derivation plan (capped_derivation plan));
  let path = tmp ".bin" in
  ok (Store.write_plan ~created:1.0 ~producer:"t" ~path ~program_digest:"p" plan);
  let _, read = ok (Store.read_plan path) in
  Sys.remove path;
  checkb "a plan artifact reads back as the same plan" true
    (same_derivation plan read)

(* Derivation is total over chain and star profiles of up to 100
   single-site contexts: it never raises, its plan fits the group-state
   vector, and it is the derivation capped at its own group count. Sizes
   lean past 64, where a chain can group more sites than fit. *)
let budget_prop =
  QCheck2.Test.make ~name:"plan: derivation fits the group-state budget"
    ~count:60
    ~print:(fun (star, ws) ->
      Printf.sprintf "%s of %d: %s" (if star then "star" else "chain")
        (List.length ws)
        (String.concat " " (List.map (fun (a, e) -> Printf.sprintf "%d/%d" a e) ws)))
    (* Unshrunk: each shrink step re-derives a profile of up to 100
       contexts, so shrinking a failure would take minutes. *)
    QCheck2.Gen.(
      no_shrink
        (pair bool
           (list_size
              (oneof [ int_range 1 100; int_range 65 100 ])
              (pair (int_range 1 10_000) (int_range 1 10_000)))))
    (fun (star, weights) ->
      match Pipeline.derive (shaped_result ~star ~base:1000 weights) with
      | exception e ->
          QCheck2.Test.fail_reportf "derive raised %s" (Printexc.to_string e)
      | plan ->
          plan.Pipeline.rewrite.Rewrite.nbits <= Rewrite.max_bits
          && same_derivation plan (capped_derivation plan))

(* A grouping config Figure 6 rejects is [Malformed] at the config
   record of a plan artifact, before derivation could raise on it. *)
let reject_bad_grouping_config () =
  let plan = Lazy.force ft_plan in
  let c = plan.Pipeline.config in
  let g = c.Pipeline.grouping in
  List.iter
    (fun (what, field, bad) ->
      let path = tmp ".bin" in
      ok
        (Store.write_plan ~created:1.0 ~producer:"t" ~path ~program_digest:"p"
           { plan with Pipeline.config = { c with Pipeline.grouping = bad } });
      (match err what (Store.read_plan path) with
      | Store.Malformed { line = 2; reason } when contains ~sub:field reason -> ()
      | e ->
          Alcotest.fail
            (what ^ ": wanted Malformed at the config record, got "
           ^ Store.error_to_string e));
      Sys.remove path)
    [
      ("max_group_members = 0", "max_group_members", { g with Grouping.max_group_members = 0 });
      ("max_group_members = -3", "max_group_members", { g with Grouping.max_group_members = -3 });
      ("merge_tol = -0.05", "merge_tol", { g with Grouping.merge_tol = -0.05 });
      ("merge_tol = 1", "merge_tol", { g with Grouping.merge_tol = 1.0 });
      ("merge_tol = 2.5", "merge_tol", { g with Grouping.merge_tol = 2.5 });
    ]

let foreign_sites_are_refused () =
  let program = ft_program () in
  let profile = crafted_result ~n:10 ~base:1000 in
  let plan = Pipeline.derive ~config:Pipeline.default_config profile in
  checkb "the crafted plan patches sites" true
    (plan.Pipeline.rewrite.Rewrite.patches <> []);
  malformed_at_0 "check_sites" ~sub:"which the program lacks"
    (Store.check_sites program plan);
  checkb "a stock plan's sites pass" true
    (Store.check_sites program (Lazy.force ft_plan) = Ok ());
  let cache = Plan_cache.create (tmp_dir ()) in
  let path = plan_entry ~dir:(Plan_cache.dir cache) profile in
  checkb "the entry itself reads" true (Result.is_ok (Store.read_plan path));
  cache_recovers "foreign-site entry" cache

(* Before plans were derived on read, a plan artifact also carried
   grouping (0x11), selector (0x12) and rewrite (0x13) records, and a
   reader trusted them: the two rewrite bodies below (a 2^40-bit vector;
   a patch bit of 100000) crashed a measurement. Re-sealed onto a
   current plan, each is an unknown tag. *)
let retired_records =
  let body tag fields =
    let b = Buffer.create 16 in
    Wire.u8 b tag;
    List.iter (Wire.varint b) fields;
    Buffer.contents b
  in
  [
    ("grouping", 0x11, body 0x11 [ 0; 0 ]);
    ("selector", 0x12, body 0x12 [ 0; 0 ]);
    ("rewrite of 2^40 bits", 0x13, body 0x13 [ 1 lsl 40; 0; 0 ]);
    ("rewrite patching bit 100000", 0x13, body 0x13 [ 1; 1; 0x400000; 100_000; 0 ]);
  ]

let retired_plan_records_are_misses () =
  List.iter
    (fun (what, tag, record) ->
      let cache = Plan_cache.create (tmp_dir ()) in
      let path =
        plan_entry ~dir:(Plan_cache.dir cache) (Lazy.force ft_plan).Pipeline.profile
      in
      let prefix, bodies = split (read_file path) in
      write_file path (seal prefix (bodies @ [ record ]));
      (match err what (Store.read_plan path) with
      | Store.Malformed { reason; _ }
        when contains ~sub:(Printf.sprintf "unknown record tag 0x%02x" tag) reason ->
          ()
      | e -> Alcotest.fail (what ^ ": wanted an unknown tag, got " ^ Store.error_to_string e));
      cache_recovers what cache)
    retired_records

let suite_warmed_equivalence () =
  (* The acceptance bar: a warmed cache runs the figure suite's cells with
     zero profiler invocations and unchanged measurements. *)
  let cells = List.map (Figures.cell (w "ft")) Figures.suite_kinds in
  let plain = Figures.measurement (Figures.run_cells ~jobs:1 cells) in
  let cache = Plan_cache.create (tmp_dir ()) in
  let plan_source = Plan_cache.source cache in
  ignore (Figures.run_cells ~jobs:1 ~plan_source cells : Figures.results);
  let obs = Obs.create () in
  let warmed = Figures.measurement (Figures.run_cells ~jobs:1 ~obs ~plan_source cells) in
  checki "warmed suite never profiles" 0 (profile_runs obs);
  checkb "warmed suite had no misses" true
    (let s = Plan_cache.stats cache in
     s.Plan_cache.hits > 0
     && s.Plan_cache.misses = (* cold pass only *) s.Plan_cache.stores);
  List.iter2
    (fun kind c ->
      Alcotest.check Alcotest.string
        (Runner.kind_name kind ^ " cell identical with warmed cache")
        (run_json (plain c)) (run_json (warmed c)))
    Figures.suite_kinds cells

(* Json.of_string's contract on hostile text: [Ok] or [Error], never
   another exception. Seeds: a store header (the JSON after the magic,
   version byte and little-endian u32 length) and a run's data points,
   compact and pretty. *)
let json_seeds =
  lazy
    (let image = (Lazy.force seed_images).(0) in
     let len =
       Char.code image.[9]
       lor (Char.code image.[10] lsl 8)
       lor (Char.code image.[11] lsl 16)
       lor (Char.code image.[12] lsl 24)
     in
     let hw = w "ft" in
     let run = Runner.to_json ~baseline:(Runner.run hw Runner.Jemalloc) (Runner.run hw Runner.Halo) in
     [| String.sub image 13 len; Json.to_string ~pretty:false run; Json.to_string run |])

let json_mutation_prop =
  QCheck2.Test.make ~name:"json: the parser survives byte mutations" ~count:400
    ~print:(fun (k, muts) ->
      Printf.sprintf "seed %d: %s" k (String.concat " " (List.map Byte_mutation.show muts)))
    QCheck2.Gen.(pair (int_bound 2) (list_size (int_range 1 3) Byte_mutation.gen))
    (fun (k, muts) ->
      let seeds = Lazy.force json_seeds in
      match Json.of_string (List.fold_left Byte_mutation.mutate seeds.(k) muts) with
      | Ok _ | Error _ -> true
      | exception e -> QCheck2.Test.fail_reportf "Json.of_string raised %s" (Printexc.to_string e))

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [
    tc "profile round-trips" profile_round_trip;
    tc "golden digests" golden_digests;
    tc "rejects truncated artifact" reject_truncated;
    tc "rejects checksum mismatch" reject_bad_checksum;
    tc "rejects version skew" reject_version_skew;
    tc "rejects wrong kind" reject_wrong_kind;
    tc "rejects digest mismatch" reject_digest_mismatch;
    tc "rejects payload count mismatch" reject_malformed_count;
    tc "missing file is an io error" reject_io;
    tc "rejects input without the magic" reject_no_magic;
    tc "header read bounds the header length" reject_huge_header_length;
    tc "rejects out-of-range record values" reject_hostile_records;
    tc "rejects out-of-range profiler configs" reject_bad_profiler_config;
    tc "v2 profile round-trips" profile_round_trip_v2;
    tc "golden v2 container" golden_v2_container;
    tc "v2 rejects truncation" reject_v2_truncated;
    tc "v2 rejects checksum mismatch" reject_v2_bad_checksum;
    tc "v2 rejects version skew" reject_v2_version_skew;
    tc "v2 rejects a count beyond the record" reject_v2_oversized_count;
    slow "batch merge is the fold's bytes" batch_merge_byte_identity;
    tc "merge: first bad input is cited" batch_merge_cites_first_bad_input;
    tc "merge_adopt resumes a persisted aggregate" merge_adopt_resumes;
    tc "digest ignores input scale" digest_scale_insensitive;
    tc "digest distinguishes workloads" digest_distinguishes_workloads;
    tc "digest agrees on fuzz pairs" digest_fuzz_pairs_agree;
    tc "merge: weight-1 identity" merge_identity;
    tc "merge: weights scale counts" merge_weights_scale;
    tc "merge: seed-independent digest" merge_across_seeds;
    tc "merge: rejects foreign program" merge_rejects_foreign_program;
    tc "merge: rejects bad weights" merge_rejects_bad_weights;
    tc "merge: incremental fold matches batch" merge_incremental_matches_batch;
    tc "merge: result is a snapshot" merge_result_is_a_snapshot;
    tc "merge: incremental fold rejects" merge_incremental_rejects;
    slow "cache: record/apply equivalence" cache_record_apply_equivalence;
    slow "cache: warmed run never profiles" cache_warmed_run_never_profiles;
    slow "cache: corrupt entry is a miss" cache_corrupt_entry_is_a_miss;
    slow "cache: eviction bounds entries" cache_eviction_bounds_entries;
    slow "cache: concurrent stats agree with obs" cache_concurrent_stats_obs_agree;
    slow "cache: stats persist across processes" cache_stats_persist_across_processes;
    slow "cache: eviction ties break on entry name" cache_eviction_name_tie_break;
    slow "cache: stray .plan.jsonl is ignored" cache_ignores_stray_jsonl;
    slow "suite: warmed-cache equivalence" suite_warmed_equivalence;
    tc "plan: an over-budget profile keeps the groups that fit" over_budget_profile_fits;
    tc "plan: rejected grouping configs are malformed" reject_bad_grouping_config;
    tc "plan: patch sites the program lacks are refused" foreign_sites_are_refused;
    tc "plan: retired record tags are cache misses" retired_plan_records_are_misses;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ plan_round_trip_prop; decoder_mutation_prop; json_mutation_prop; budget_prop ]
