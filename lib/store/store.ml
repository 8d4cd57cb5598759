let format_name = "halo/store"
let version = 1
let version_v2 = 2

(* v2 binary container: first 8 bytes of the file. A v1 artifact starts
   with '{', so the two containers are sniffable from the first byte. *)
let magic = "HALOSTOR"

type format = V1 | V2

let format_version = function V1 -> version | V2 -> version_v2
let format_of_version = function 1 -> Some V1 | 2 -> Some V2 | _ -> None
let format_to_string = function V1 -> "v1" | V2 -> "v2"

let format_of_string = function
  | "v1" | "1" | "jsonl" -> Some V1
  | "v2" | "2" | "binary" -> Some V2
  | _ -> None

type header = {
  version : int;
  kind : string;
  program_digest : string;
  config_digest : string;
  created : float;
  producer : string;
  meta : (string * Json.t) list;
}

type error =
  | Io of string
  | Malformed of { line : int; reason : string }
  | Version_skew of { found : int; supported : int }
  | Wrong_kind of { found : string; expected : string }
  | Digest_mismatch of { field : string; found : string; expected : string }
  | Bad_checksum of { stated : string; computed : string }
  | Truncated

let error_to_string = function
  | Io m -> "io error: " ^ m
  | Malformed { line; reason } ->
      Printf.sprintf "malformed artifact (line %d): %s" line reason
  | Version_skew { found; supported } ->
      Printf.sprintf "artifact format version %d; this build supports version %d"
        found supported
  | Wrong_kind { found; expected } ->
      Printf.sprintf "artifact kind %S where %S was expected" found expected
  | Digest_mismatch { field; found; expected } ->
      Printf.sprintf "%s digest mismatch: artifact has %s, expected %s" field
        found expected
  | Bad_checksum { stated; computed } ->
      Printf.sprintf "payload checksum mismatch: trailer states %s, payload hashes to %s"
        stated computed
  | Truncated -> "truncated artifact: trailer line missing"

exception Decode of error

let fail line reason = raise (Decode (Malformed { line; reason }))

(* Strict per-line field access: a [Json] accessor error becomes a
   [Malformed] carrying the 1-based artifact line. *)
let jint ~line k j =
  match Json.get_int k j with Ok v -> v | Error e -> fail line e

let jfloat ~line k j =
  match Json.get_float k j with Ok v -> v | Error e -> fail line e

let jstring ~line k j =
  match Json.get_string k j with Ok v -> v | Error e -> fail line e

let jbool ~line k j =
  match Json.get_bool k j with Ok v -> v | Error e -> fail line e

let jlist ~line k j =
  match Json.get_list k j with Ok v -> v | Error e -> fail line e

let jobj ~line k j =
  match Json.get_obj k j with Ok v -> v | Error e -> fail line e

let jints ~line k j =
  List.map
    (function
      | Json.Int i -> i
      | _ -> fail line (Printf.sprintf "field %S must hold integers" k))
    (jlist ~line k j)

(* {1 Config codecs} *)

let json_of_profiler_config (c : Profiler.config) =
  Json.Obj
    [
      ("affinity_distance", Json.Int c.Profiler.affinity_distance);
      ("max_tracked_size", Json.Int c.Profiler.max_tracked_size);
      ("node_coverage", Json.Float c.Profiler.node_coverage);
      ("seed", Json.Int c.Profiler.seed);
      ("sample_period", Json.Int c.Profiler.sample_period);
    ]

let profiler_config_of_json ~line j =
  {
    Profiler.affinity_distance = jint ~line "affinity_distance" j;
    max_tracked_size = jint ~line "max_tracked_size" j;
    node_coverage = jfloat ~line "node_coverage" j;
    seed = jint ~line "seed" j;
    sample_period = jint ~line "sample_period" j;
  }

let json_of_grouping_params (p : Grouping.params) =
  Json.Obj
    [
      ("min_edge_weight", Json.Int p.Grouping.min_edge_weight);
      ("max_group_members", Json.Int p.Grouping.max_group_members);
      ("merge_tol", Json.Float p.Grouping.merge_tol);
      ("gthresh", Json.Float p.Grouping.gthresh);
      ( "max_groups",
        match p.Grouping.max_groups with
        | None -> Json.Null
        | Some n -> Json.Int n );
    ]

let grouping_params_of_json ~line j =
  {
    Grouping.min_edge_weight = jint ~line "min_edge_weight" j;
    max_group_members = jint ~line "max_group_members" j;
    merge_tol = jfloat ~line "merge_tol" j;
    gthresh = jfloat ~line "gthresh" j;
    max_groups =
      (match Json.mem "max_groups" j with
      | Some Json.Null -> None
      | Some (Json.Int n) -> Some n
      | Some _ -> fail line "field \"max_groups\" must be an integer or null"
      | None -> fail line "missing field \"max_groups\"");
  }

let json_of_alloc_config (c : Group_alloc.config) =
  Json.Obj
    [
      ("slab_size", Json.Int c.Group_alloc.slab_size);
      ("chunk_size", Json.Int c.Group_alloc.chunk_size);
      ("max_grouped_size", Json.Int c.Group_alloc.max_grouped_size);
      ( "spare_policy",
        match c.Group_alloc.spare_policy with
        | Group_alloc.Keep_spare n -> Json.Obj [ ("keep_spare", Json.Int n) ]
        | Group_alloc.Always_reuse -> Json.String "always_reuse" );
      ( "backend",
        Json.String
          (match c.Group_alloc.backend with
          | Group_alloc.Bump_only -> "bump_only"
          | Group_alloc.Sharded_free_lists -> "sharded_free_lists") );
      ("color_groups", Json.Bool c.Group_alloc.color_groups);
    ]

let alloc_config_of_json ~line j =
  {
    Group_alloc.slab_size = jint ~line "slab_size" j;
    chunk_size = jint ~line "chunk_size" j;
    max_grouped_size = jint ~line "max_grouped_size" j;
    spare_policy =
      (match Json.mem "spare_policy" j with
      | Some (Json.String "always_reuse") -> Group_alloc.Always_reuse
      | Some (Json.Obj _ as o) ->
          Group_alloc.Keep_spare (jint ~line "keep_spare" o)
      | Some _ | None ->
          fail line
            "field \"spare_policy\" must be \"always_reuse\" or {\"keep_spare\": n}");
    backend =
      (match jstring ~line "backend" j with
      | "bump_only" -> Group_alloc.Bump_only
      | "sharded_free_lists" -> Group_alloc.Sharded_free_lists
      | s -> fail line (Printf.sprintf "unknown allocator backend %S" s));
    color_groups = jbool ~line "color_groups" j;
  }

let json_of_pipeline_config (c : Pipeline.config) =
  Json.Obj
    [
      ("profiler", json_of_profiler_config c.Pipeline.profiler);
      ("grouping", json_of_grouping_params c.Pipeline.grouping);
      ("min_edge_frac", Json.Float c.Pipeline.min_edge_frac);
      ("allocator", json_of_alloc_config c.Pipeline.allocator);
    ]

let pipeline_config_of_json ~line j =
  let field k =
    match Json.mem k j with
    | Some v -> v
    | None -> fail line (Printf.sprintf "missing field %S" k)
  in
  {
    Pipeline.profiler = profiler_config_of_json ~line (field "profiler");
    grouping = grouping_params_of_json ~line (field "grouping");
    min_edge_frac = jfloat ~line "min_edge_frac" j;
    allocator = alloc_config_of_json ~line (field "allocator");
  }

(* {1 Digests} *)

let md5_json j = Digest.to_hex (Digest.string (Json.to_string ~pretty:false j))

let profile_config_digest c =
  (* The input seed names the run, not the experiment: recordings that
     differ only by seed must share a digest so they remain mergeable. *)
  md5_json (json_of_profiler_config { c with Profiler.seed = 0 })

let plan_config_digest c = md5_json (json_of_pipeline_config c)

(* {1 Payload checksum: FNV-1a 64 over payload bytes}

    Chosen over [Digest] because it feeds incrementally, so both ends
    stream line by line; this is an integrity check against torn or edited
    files, not an authenticity measure. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_add h s =
  let h = ref h in
  String.iter
    (fun ch ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code ch))) fnv_prime)
    s;
  !h

let fnv_sub h s pos len =
  let h = ref h in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        fnv_prime
  done;
  !h

let fnv_hex h = Printf.sprintf "%016Lx" h

(* {1 Writer} *)

type writer = { oc : out_channel; mutable hash : int64; mutable lines : int }

let header_json h =
  Json.Obj
    [
      ("format", Json.String format_name);
      ("version", Json.Int h.version);
      ("kind", Json.String h.kind);
      ("program", Json.String h.program_digest);
      ("config", Json.String h.config_digest);
      ("created", Json.Float h.created);
      ("producer", Json.String h.producer);
      ("meta", Json.Obj h.meta);
    ]

let start_writer oc h =
  output_string oc (Json.to_string ~pretty:false (header_json h));
  output_char oc '\n';
  { oc; hash = fnv_offset; lines = 0 }

let wline w j =
  let s = Json.to_string ~pretty:false j in
  output_string w.oc s;
  output_char w.oc '\n';
  w.hash <- fnv_add (fnv_add w.hash s) "\n";
  w.lines <- w.lines + 1

let finish_writer w =
  output_string w.oc
    (Json.to_string ~pretty:false
       (Json.Obj
          [
            ("end", Json.Bool true);
            ("lines", Json.Int w.lines);
            ("checksum", Json.String (fnv_hex w.hash));
          ]));
  output_char w.oc '\n'

(* {1 v2 binary container}

   Layout, all integers little-endian:

   {v
   magic    8 bytes   "HALOSTOR"
   version  u8        2
   hlen     u32       byte length of the header JSON
   header   hlen      the same JSON object a v1 header line carries
   record*            u32 frame length (>= 1), then that many bytes:
                      a tag byte and a tag-specific binary body
   sentinel u32       0 (no record is empty, so 0 terminates the stream)
   count    varint    number of records
   checksum i64       FNV-1a 64 over every record frame (length prefix
                      included), the v1 trailer's integrity check
   v}

   The reader loads the image once and decodes records in place through
   {!Wire.dec} windows — no per-record copies, which is what makes the
   layout mmap-friendly. Record ordinals map onto the v1 error
   vocabulary: the header is "line" 1, the first record line 2. *)

(* Record tags. Profile and plan records share a namespace so the plan
   decoder can reuse the profile handler, exactly like the v1 "p" tags. *)
let tag_meta = 0x01
let tag_ctx = 0x02
let tag_total = 0x03
let tag_node = 0x04
let tag_edge = 0x05
let tag_config = 0x10
let tag_grouping = 0x11
let tag_selector = 0x12
let tag_rewrite = 0x13

(* Graph discriminator inside total/node/edge records. *)
let gr_raw = 0
let gr_filtered = 1

type bwriter = {
  b_oc : out_channel;
  b_buf : Buffer.t;
  mutable b_hash : int64;
  mutable b_records : int;
}

(* Build one framed record in the scratch buffer (4 zero bytes reserved
   for the length prefix, patched after the body is known), hash the
   whole frame, stream it out. *)
let brecord w fill =
  let b = w.b_buf in
  Buffer.clear b;
  Buffer.add_string b "\000\000\000\000";
  fill b;
  let frame = Buffer.to_bytes b in
  let body_len = Bytes.length frame - 4 in
  Bytes.set frame 0 (Char.chr (body_len land 0xff));
  Bytes.set frame 1 (Char.chr ((body_len lsr 8) land 0xff));
  Bytes.set frame 2 (Char.chr ((body_len lsr 16) land 0xff));
  Bytes.set frame 3 (Char.chr ((body_len lsr 24) land 0xff));
  let frame = Bytes.unsafe_to_string frame in
  w.b_hash <- fnv_sub w.b_hash frame 0 (String.length frame);
  output_string w.b_oc frame;
  w.b_records <- w.b_records + 1

let start_bwriter oc h =
  output_string oc magic;
  output_char oc (Char.chr version_v2);
  let hs = Json.to_string ~pretty:false (header_json h) in
  let b = Buffer.create 16 in
  Wire.u32 b (String.length hs);
  output_string oc (Buffer.contents b);
  output_string oc hs;
  { b_oc = oc; b_buf = Buffer.create 256; b_hash = fnv_offset; b_records = 0 }

let finish_bwriter w =
  let b = Buffer.create 24 in
  Wire.u32 b 0;
  Wire.varint b w.b_records;
  Wire.i64 b w.b_hash;
  output_string w.b_oc (Buffer.contents b)

let with_artifact ?obs ~format ~path ~header ~emit_v1 ~emit_v2 () =
  Obs.span obs "store.encode"
    ~attrs:
      [
        ("kind", Json.String header.kind);
        ("path", Json.String path);
        ("format", Json.Int (format_version format));
      ]
    (fun () ->
      try
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            (match format with
            | V1 ->
                let w = start_writer oc header in
                emit_v1 w;
                finish_writer w;
                Obs.add_attrs obs [ ("payload_lines", Json.Int w.lines) ]
            | V2 ->
                let w = start_bwriter oc header in
                emit_v2 w;
                finish_bwriter w;
                Obs.add_attrs obs
                  [ ("payload_records", Json.Int w.b_records) ]);
            Obs.count obs
              (Printf.sprintf "store.codec.%s.encodes" (format_to_string format))
              1;
            Obs.observe obs "store.codec.encode_bytes"
              (float_of_int (pos_out oc)));
        Ok ()
      with Sys_error m -> Error (Io m))

(* Canonical payload order: equal values encode to equal bytes. Contexts
   go in id order (so re-interning reproduces the ids), nodes ascending,
   edges sorted by endpoint pair. *)

let emit_graph w tag g =
  (match Affinity_graph.reported_total g with
  | None -> ()
  | Some v ->
      wline w
        (Json.Obj
           [ ("p", Json.String "total"); ("g", Json.String tag); ("v", Json.Int v) ]));
  List.iter
    (fun id ->
      wline w
        (Json.Obj
           [
             ("p", Json.String "node");
             ("g", Json.String tag);
             ("id", Json.Int id);
             ("n", Json.Int (Affinity_graph.node_accesses g id));
           ]))
    (Affinity_graph.nodes g);
  List.iter
    (fun (x, y, wt) ->
      wline w
        (Json.Obj
           [
             ("p", Json.String "edge");
             ("g", Json.String tag);
             ("x", Json.Int x);
             ("y", Json.Int y);
             ("w", Json.Int wt);
           ]))
    (List.sort compare (Affinity_graph.edges g))

let emit_profile w (r : Profiler.result) =
  wline w
    (Json.Obj
       [
         ("p", Json.String "meta");
         ("total_accesses", Json.Int r.Profiler.total_accesses);
         ("tracked_allocs", Json.Int r.Profiler.tracked_allocs);
         ("instructions", Json.Int r.Profiler.instructions);
       ]);
  let tbl = r.Profiler.contexts in
  for id = 0 to Context.count tbl - 1 do
    wline w
      (Json.Obj
         [
           ("p", Json.String "ctx");
           ("id", Json.Int id);
           ( "sites",
             Json.List
               (Array.to_list
                  (Array.map (fun s -> Json.Int s) (Context.sites tbl id))) );
         ])
  done;
  emit_graph w "raw" r.Profiler.raw_graph;
  emit_graph w "graph" r.Profiler.graph

(* v2 emitters mirror the v1 payload record for record and in the same
   canonical order, so both codecs share one equal-values-equal-bytes
   contract. *)

let bemit_graph w gtag g =
  (match Affinity_graph.reported_total g with
  | None -> ()
  | Some v ->
      brecord w (fun b ->
          Wire.u8 b tag_total;
          Wire.u8 b gtag;
          Wire.varint b v));
  List.iter
    (fun id ->
      brecord w (fun b ->
          Wire.u8 b tag_node;
          Wire.u8 b gtag;
          Wire.varint b id;
          Wire.varint b (Affinity_graph.node_accesses g id)))
    (Affinity_graph.nodes g);
  List.iter
    (fun (x, y, wt) ->
      brecord w (fun b ->
          Wire.u8 b tag_edge;
          Wire.u8 b gtag;
          Wire.varint b x;
          Wire.varint b y;
          Wire.varint b wt))
    (List.sort compare (Affinity_graph.edges g))

let bemit_profile w (r : Profiler.result) =
  brecord w (fun b ->
      Wire.u8 b tag_meta;
      Wire.varint b r.Profiler.total_accesses;
      Wire.varint b r.Profiler.tracked_allocs;
      Wire.varint b r.Profiler.instructions);
  let tbl = r.Profiler.contexts in
  for id = 0 to Context.count tbl - 1 do
    brecord w (fun b ->
        Wire.u8 b tag_ctx;
        Wire.varint b id;
        let sites = Context.sites tbl id in
        Wire.varint b (Array.length sites);
        Array.iter (Wire.varint b) sites)
  done;
  bemit_graph w gr_raw r.Profiler.raw_graph;
  bemit_graph w gr_filtered r.Profiler.graph

(* {1 Reader core} *)

(* [expect] is the container's version: a JSONL file must carry a
   version-1 header, a binary file a version-2 one — a mismatch is skew
   even when the stated version is one this build could read in its
   proper container. *)
let parse_header ~line ~expect j =
  let fmt = jstring ~line "format" j in
  if fmt <> format_name then
    fail line (Printf.sprintf "not a %s artifact (format %S)" format_name fmt);
  let v = jint ~line "version" j in
  if v <> expect then raise (Decode (Version_skew { found = v; supported = expect }));
  {
    version = v;
    kind = jstring ~line "kind" j;
    program_digest = jstring ~line "program" j;
    config_digest = jstring ~line "config" j;
    created = jfloat ~line "created" j;
    producer = jstring ~line "producer" j;
    meta = jobj ~line "meta" j;
  }

(* Logical lines of a v1 artifact. Tolerant of the two ways a file
   survives transport intact but byte-shifted: CRLF line endings (each
   line's trailing '\r' is stripped before parsing and checksumming, so
   the checksum is over the canonical LF form the writer hashed) and a
   final line with no trailing newline (still a line — [Truncated] is
   reserved for a genuinely missing trailer). *)
let v1_lines data =
  let n = String.length data in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else
      let nl =
        match String.index_from_opt data pos '\n' with
        | Some i -> i
        | None -> n
      in
      let stop = if nl > pos && data.[nl - 1] = '\r' then nl - 1 else nl in
      go (nl + 1) (String.sub data pos (stop - pos) :: acc)
  in
  go 0 []

(* Verify a whole v1 image: header, payload lines (parsed, counted,
   checksummed), trailer. Returns the payload as (1-based line, value). *)
let read_lines_v1 data =
  match v1_lines data with
  | [] -> raise (Decode Truncated)
  | header_line :: rest ->
      let hj =
        match Json.of_string header_line with Ok j -> j | Error e -> fail 1 e
      in
      let header = parse_header ~line:1 ~expect:version hj in
      let payload = ref [] in
      let hash = ref fnv_offset in
      let count = ref 0 in
      let rec loop = function
        | [] -> raise (Decode Truncated)
        | raw :: rest -> (
            let line = !count + 2 in
            let j =
              match Json.of_string raw with Ok j -> j | Error e -> fail line e
            in
            match Json.mem "end" j with
            | Some _ ->
                let stated_lines = jint ~line "lines" j in
                if stated_lines <> !count then
                  fail line
                    (Printf.sprintf "trailer declares %d payload lines, found %d"
                       stated_lines !count);
                let stated = jstring ~line "checksum" j in
                let computed = fnv_hex !hash in
                if not (String.equal stated computed) then
                  raise (Decode (Bad_checksum { stated; computed }));
                if rest <> [] then fail (line + 1) "data after trailer line"
            | None ->
                hash := fnv_add (fnv_add !hash raw) "\n";
                incr count;
                payload := (line, j) :: !payload;
                loop rest)
      in
      loop rest;
      (header, List.rev !payload)


(* Scan a v2 image: header, then every record frame (counted,
   checksummed, bounds-checked), then the trailer. Records come back as
   (1-based ordinal, in-place cursor) — no payload bytes are copied. *)
let read_records_v2 data =
  let total = String.length data in
  if total < 9 then raise (Decode Truncated);
  let v = Char.code data.[8] in
  if v <> version_v2 then
    raise (Decode (Version_skew { found = v; supported = version_v2 }));
  let u32_at pos =
    if pos + 4 > total then raise (Decode Truncated);
    let g i = Char.code (String.unsafe_get data (pos + i)) in
    g 0 lor (g 1 lsl 8) lor (g 2 lsl 16) lor (g 3 lsl 24)
  in
  let hlen = u32_at 9 in
  if 13 + hlen > total then raise (Decode Truncated);
  let hj =
    match Json.of_string (String.sub data 13 hlen) with
    | Ok j -> j
    | Error e -> fail 1 e
  in
  let header = parse_header ~line:1 ~expect:version_v2 hj in
  let rec loop pos count hash acc =
    let rlen = u32_at pos in
    if rlen = 0 then begin
      let line = count + 2 in
      let stated_records, stated_sum =
        try
          let d = Wire.dec ~pos:(pos + 4) data in
          let n = Wire.read_varint d in
          let s = Wire.read_i64 d in
          if not (Wire.eof d) then fail line "data after trailer";
          (n, s)
        with Wire.Error _ -> raise (Decode Truncated)
      in
      if stated_records <> count then
        fail line
          (Printf.sprintf "trailer declares %d records, found %d"
             stated_records count);
      if not (Int64.equal stated_sum hash) then
        raise
          (Decode
             (Bad_checksum
                { stated = fnv_hex stated_sum; computed = fnv_hex hash }));
      (header, List.rev acc)
    end
    else if pos + 4 + rlen > total then raise (Decode Truncated)
    else
      let hash = fnv_sub hash data pos (4 + rlen) in
      let line = count + 2 in
      let d = Wire.dec ~pos:(pos + 4) ~len:rlen data in
      loop (pos + 4 + rlen) (count + 1) hash ((line, d) :: acc)
  in
  loop (13 + hlen) 0 fnv_offset []

(* A decoded artifact body, container-agnostic: v1 carries parsed JSON
   lines, v2 carries in-place binary cursors. *)
type payload = Lines of (int * Json.t) list | Records of (int * Wire.dec) list

let is_v2_image data =
  String.length data >= 8 && String.equal (String.sub data 0 8) magic

let read_artifact path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  if is_v2_image data then
    let header, records = read_records_v2 data in
    (V2, header, Records records)
  else
    let header, lines = read_lines_v1 data in
    (V1, header, Lines lines)

let check_expect ~field ~found = function
  | Some expected when expected <> found ->
      raise (Decode (Digest_mismatch { field; found; expected }))
  | _ -> ()

let wrap f =
  match f () with
  | v -> Ok v
  | exception Decode e -> Error e
  | exception Sys_error m -> Error (Io m)

(* {1 Profile payload} *)

type profile_state = {
  ctxs : Context.table;
  raw : Affinity_graph.t;
  filtered : Affinity_graph.t;
  mutable pmeta : (int * int * int) option;
}

let new_profile_state () =
  {
    ctxs = Context.create ();
    raw = Affinity_graph.create ();
    filtered = Affinity_graph.create ();
    pmeta = None;
  }

let graph_of st ~line = function
  | "raw" -> st.raw
  | "graph" -> st.filtered
  | g -> fail line (Printf.sprintf "unknown graph tag %S" g)

(* Shared between profile and plan decoding; returns [false] on tags it
   does not own so the plan decoder can layer its own. *)
let handle_profile_line st ~line tag j =
  match tag with
  | "meta" ->
      if st.pmeta <> None then fail line "duplicate meta line";
      st.pmeta <-
        Some
          ( jint ~line "total_accesses" j,
            jint ~line "tracked_allocs" j,
            jint ~line "instructions" j );
      true
  | "ctx" ->
      let id = jint ~line "id" j in
      let sites = Array.of_list (jints ~line "sites" j) in
      let got = Context.intern st.ctxs sites in
      if got <> id then
        fail line
          (Printf.sprintf
             "context %d interned as %d: ids must be dense, in order, distinct"
             id got);
      true
  | "total" ->
      let g = graph_of st ~line (jstring ~line "g" j) in
      if Affinity_graph.reported_total g <> None then
        fail line "duplicate graph total line";
      Affinity_graph.set_reported_total g (Some (jint ~line "v" j));
      true
  | "node" ->
      let g = graph_of st ~line (jstring ~line "g" j) in
      Affinity_graph.add_access_n g (jint ~line "id" j) (jint ~line "n" j);
      true
  | "edge" ->
      let g = graph_of st ~line (jstring ~line "g" j) in
      Affinity_graph.add_affinity_n g (jint ~line "x" j) (jint ~line "y" j)
        (jint ~line "w" j);
      true
  | _ -> false

(* v2 twins of the line handlers, reading the same logical records from
   binary cursors. [Wire.Error] is mapped to [Malformed] by the payload
   walkers below. *)

(* A decoded element count. Every element takes at least one byte, so a
   count beyond the frame's remaining bytes is rejected before anything
   is allocated for it. *)
let read_len ~line d =
  let n = Wire.read_varint d in
  if n < 0 then fail line "negative length"
  else if n > Wire.remaining d then
    fail line
      (Printf.sprintf "length %d exceeds the %d bytes left in the record" n
         (Wire.remaining d))
  else n

let rint_list ~line d =
  let n = read_len ~line d in
  let rec go i acc =
    if i = n then List.rev acc else go (i + 1) (Wire.read_varint d :: acc)
  in
  go 0 []

let bgraph_of st ~line g =
  if g = gr_raw then st.raw
  else if g = gr_filtered then st.filtered
  else fail line (Printf.sprintf "unknown graph tag %d" g)

let handle_profile_record st ~line tag d =
  if tag = tag_meta then begin
    if st.pmeta <> None then fail line "duplicate meta record";
    let ta = Wire.read_varint d in
    let tr = Wire.read_varint d in
    let ins = Wire.read_varint d in
    st.pmeta <- Some (ta, tr, ins);
    true
  end
  else if tag = tag_ctx then begin
    let id = Wire.read_varint d in
    let n = read_len ~line d in
    let sites = Array.make n 0 in
    for i = 0 to n - 1 do
      sites.(i) <- Wire.read_varint d
    done;
    let got = Context.intern st.ctxs sites in
    if got <> id then
      fail line
        (Printf.sprintf
           "context %d interned as %d: ids must be dense, in order, distinct"
           id got);
    true
  end
  else if tag = tag_total then begin
    let g = bgraph_of st ~line (Wire.read_u8 d) in
    if Affinity_graph.reported_total g <> None then
      fail line "duplicate graph total record";
    Affinity_graph.set_reported_total g (Some (Wire.read_varint d));
    true
  end
  else if tag = tag_node then begin
    let g = bgraph_of st ~line (Wire.read_u8 d) in
    let id = Wire.read_varint d in
    Affinity_graph.add_access_n g id (Wire.read_varint d);
    true
  end
  else if tag = tag_edge then begin
    let g = bgraph_of st ~line (Wire.read_u8 d) in
    let x = Wire.read_varint d in
    let y = Wire.read_varint d in
    Affinity_graph.add_affinity_n g x y (Wire.read_varint d);
    true
  end
  else false

let finish_profile st =
  match st.pmeta with
  | None -> fail 0 "artifact has no meta line"
  | Some (total_accesses, tracked_allocs, instructions) ->
      {
        Profiler.graph = st.filtered;
        raw_graph = st.raw;
        contexts = st.ctxs;
        total_accesses;
        tracked_allocs;
        instructions;
      }

(* {1 Profiles} *)

type profile_artifact = {
  header : header;
  config : Profiler.config;
  result : Profiler.result;
}

let write_profile ?obs ?(format = V1) ?created ?(producer = "halo")
    ?(extra_meta = []) ~path ~program_digest ~config result =
  let created =
    match created with Some t -> t | None -> Unix.gettimeofday ()
  in
  let header =
    {
      version = format_version format;
      kind = "profile";
      program_digest;
      config_digest = profile_config_digest config;
      created;
      producer;
      meta = ("profiler_config", json_of_profiler_config config) :: extra_meta;
    }
  in
  with_artifact ?obs ~format ~path ~header
    ~emit_v1:(fun w -> emit_profile w result)
    ~emit_v2:(fun w -> bemit_profile w result)
    ()

let decode_profile_payload payload =
  let st = new_profile_state () in
  (match payload with
  | Lines lines ->
      List.iter
        (fun (line, j) ->
          let tag = jstring ~line "p" j in
          if not (handle_profile_line st ~line tag j) then
            fail line (Printf.sprintf "unknown payload tag %S" tag))
        lines
  | Records records ->
      List.iter
        (fun (line, d) ->
          try
            let tag = Wire.read_u8 d in
            if not (handle_profile_record st ~line tag d) then
              fail line (Printf.sprintf "unknown record tag 0x%02x" tag);
            Wire.expect_end d
          with Wire.Error r -> fail line r)
        records);
  st

let note_decode obs fmt =
  Obs.add_attrs obs [ ("format", Json.Int (format_version fmt)) ];
  Obs.count obs
    (Printf.sprintf "store.codec.%s.decodes" (format_to_string fmt))
    1

let read_profile ?obs ?expect_program path =
  Obs.span obs "store.decode"
    ~attrs:[ ("kind", Json.String "profile"); ("path", Json.String path) ]
    (fun () ->
      wrap (fun () ->
          let fmt, header, payload = read_artifact path in
          note_decode obs fmt;
          if header.kind <> "profile" then
            raise
              (Decode (Wrong_kind { found = header.kind; expected = "profile" }));
          check_expect ~field:"program" ~found:header.program_digest
            expect_program;
          let config =
            match List.assoc_opt "profiler_config" header.meta with
            | None -> fail 1 "header meta is missing profiler_config"
            | Some j -> profiler_config_of_json ~line:1 j
          in
          let self = profile_config_digest config in
          if self <> header.config_digest then
            raise
              (Decode
                 (Digest_mismatch
                    {
                      field = "config";
                      found = header.config_digest;
                      expected = self;
                    }));
          let st = decode_profile_payload payload in
          { header; config; result = finish_profile st }))

(* Incremental weighted merging: one mutable accumulator per program,
   fed one artifact at a time. The batch [merge_profiles] is a fold over
   this state, so the two APIs cannot drift. *)

type merge_state = {
  m_contexts : Context.table;
  m_raw : Affinity_graph.t;
  (* Digests (and shared config) pinned by the first artifact folded. *)
  mutable m_first : (string * string * Profiler.config) option;
  mutable m_count : int;
  mutable m_weight : float;
  mutable m_ta : int;
  mutable m_tr : int;
  mutable m_ins : int;
}

let merge_create () =
  {
    m_contexts = Context.create ();
    m_raw = Affinity_graph.create ();
    m_first = None;
    m_count = 0;
    m_weight = 0.0;
    m_ta = 0;
    m_tr = 0;
    m_ins = 0;
  }

let merge_count st = st.m_count
let merge_total_weight st = st.m_weight

let merge_scale w n = int_of_float (Float.round (w *. float_of_int n))

let merge_add st ((a : profile_artifact), w) =
  if (not (Float.is_finite w)) || w <= 0.0 then
    invalid_arg "Store.merge_add: weights must be positive and finite";
  wrap (fun () ->
      (match st.m_first with
      | None ->
          st.m_first <-
            Some (a.header.program_digest, a.header.config_digest, a.config)
      | Some (program, config, _) ->
          if a.header.program_digest <> program then
            raise
              (Decode
                 (Digest_mismatch
                    {
                      field = "program";
                      found = a.header.program_digest;
                      expected = program;
                    }));
          if a.header.config_digest <> config then
            raise
              (Decode
                 (Digest_mismatch
                    {
                      field = "config";
                      found = a.header.config_digest;
                      expected = config;
                    })));
      let old = a.result.Profiler.contexts in
      let n = Context.count old in
      let remap = Array.make n 0 in
      for id = 0 to n - 1 do
        remap.(id) <- Context.intern st.m_contexts (Context.sites old id)
      done;
      let g = a.result.Profiler.raw_graph in
      List.iter
        (fun id ->
          Affinity_graph.add_access_n st.m_raw remap.(id)
            (merge_scale w (Affinity_graph.node_accesses g id)))
        (Affinity_graph.nodes g);
      List.iter
        (fun (x, y, wt) ->
          Affinity_graph.add_affinity_n st.m_raw remap.(x) remap.(y)
            (merge_scale w wt))
        (Affinity_graph.edges g);
      st.m_ta <- st.m_ta + merge_scale w a.result.Profiler.total_accesses;
      st.m_tr <- st.m_tr + merge_scale w a.result.Profiler.tracked_allocs;
      st.m_ins <- st.m_ins + merge_scale w a.result.Profiler.instructions;
      st.m_count <- st.m_count + 1;
      st.m_weight <- st.m_weight +. w)

let copy_graph g =
  let c = Affinity_graph.create () in
  List.iter
    (fun id -> Affinity_graph.add_access_n c id (Affinity_graph.node_accesses g id))
    (Affinity_graph.nodes g);
  List.iter
    (fun (x, y, w) -> Affinity_graph.add_affinity_n c x y w)
    (Affinity_graph.edges g);
  Affinity_graph.set_reported_total c (Affinity_graph.reported_total g);
  c

let copy_contexts tbl =
  let c = Context.create () in
  for id = 0 to Context.count tbl - 1 do
    ignore (Context.intern c (Context.sites tbl id) : Context.id)
  done;
  c

let merge_result_internal ~snapshot st =
  match st.m_first with
  | None -> invalid_arg "Store.merge_result: empty merge state"
  | Some (_, _, config) ->
      wrap (fun () ->
          let raw = if snapshot then copy_graph st.m_raw else st.m_raw in
          let contexts =
            if snapshot then copy_contexts st.m_contexts else st.m_contexts
          in
          let filtered =
            Affinity_graph.filter_top raw
              ~coverage:config.Profiler.node_coverage
          in
          ( config,
            {
              Profiler.graph = filtered;
              raw_graph = raw;
              contexts;
              total_accesses = st.m_ta;
              tracked_allocs = st.m_tr;
              instructions = st.m_ins;
            } ))

let merge_result st = merge_result_internal ~snapshot:true st

let merge_profiles inputs =
  if inputs = [] then invalid_arg "Store.merge_profiles: empty input list";
  List.iter
    (fun (_, w) ->
      if (not (Float.is_finite w)) || w <= 0.0 then
        invalid_arg "Store.merge_profiles: weights must be positive and finite")
    inputs;
  let st = merge_create () in
  let rec fold = function
    | [] -> merge_result_internal ~snapshot:false st
    | input :: rest -> (
        match merge_add st input with
        | Ok () -> fold rest
        | Error e -> Error e)
  in
  fold inputs

(* {1 Sharded merging}

   Contiguous chunks of the input fold on worker domains, then the
   partial accumulators combine in chunk order. Scaled counts are plain
   integers, so chunked addition is exactly the sequential sum; contexts
   absorb in each chunk's local first-appearance order, which is the
   order the sequential fold would first meet them — the merged graph is
   byte-identical at any worker count. *)

let merge_absorb dst src =
  match src.m_first with
  | None -> Ok ()
  | Some (program, config_digest, config) ->
      wrap (fun () ->
          (match dst.m_first with
          | None -> dst.m_first <- Some (program, config_digest, config)
          | Some (p, c, _) ->
              if program <> p then
                raise
                  (Decode
                     (Digest_mismatch
                        { field = "program"; found = program; expected = p }));
              if config_digest <> c then
                raise
                  (Decode
                     (Digest_mismatch
                        { field = "config"; found = config_digest; expected = c })));
          let old = src.m_contexts in
          let n = Context.count old in
          let remap = Array.make n 0 in
          for id = 0 to n - 1 do
            remap.(id) <- Context.intern dst.m_contexts (Context.sites old id)
          done;
          let g = src.m_raw in
          List.iter
            (fun id ->
              Affinity_graph.add_access_n dst.m_raw remap.(id)
                (Affinity_graph.node_accesses g id))
            (Affinity_graph.nodes g);
          List.iter
            (fun (x, y, wt) ->
              Affinity_graph.add_affinity_n dst.m_raw remap.(x) remap.(y) wt)
            (Affinity_graph.edges g);
          dst.m_ta <- dst.m_ta + src.m_ta;
          dst.m_tr <- dst.m_tr + src.m_tr;
          dst.m_ins <- dst.m_ins + src.m_ins;
          dst.m_count <- dst.m_count + src.m_count;
          dst.m_weight <- dst.m_weight +. src.m_weight)

let merge_adopt st ~mass ~count artifact =
  if (not (Float.is_finite mass)) || mass <= 0.0 then
    invalid_arg "Store.merge_adopt: mass must be positive and finite";
  if count < 0 then invalid_arg "Store.merge_adopt: negative count";
  let tmp = merge_create () in
  match merge_add tmp (artifact, 1.0) with
  | Error e -> Error e
  | Ok () ->
      tmp.m_weight <- mass;
      tmp.m_count <- count;
      merge_absorb st tmp

(* Contiguous chunks in input order, sizes differing by at most one. *)
let chunk_evenly inputs nchunks =
  let n = List.length inputs in
  let base = n / nchunks and extra = n mod nchunks in
  let rec take k acc xs =
    if k = 0 then (List.rev acc, xs)
    else
      match xs with
      | [] -> (List.rev acc, [])
      | x :: tl -> take (k - 1) (x :: acc) tl
  in
  let rec go i xs acc =
    if i = nchunks then List.rev acc
    else
      let sz = base + if i < extra then 1 else 0 in
      let chunk, rest = take sz [] xs in
      go (i + 1) rest (chunk :: acc)
  in
  go 0 inputs [] |> List.filter (fun c -> c <> [])

let fold_chunk inputs =
  let st = merge_create () in
  let rec go = function
    | [] -> (st, None)
    | input :: rest -> (
        match merge_add st input with
        | Ok () -> go rest
        | Error e -> (st, Some e))
  in
  go inputs

let check_weights ~who inputs =
  List.iter
    (fun (_, w) ->
      if (not (Float.is_finite w)) || w <= 0.0 then
        invalid_arg (who ^ ": weights must be positive and finite"))
    inputs

let merge_profiles_sharded ?obs ?jobs inputs =
  if inputs = [] then
    invalid_arg "Store.merge_profiles_sharded: empty input list";
  check_weights ~who:"Store.merge_profiles_sharded" inputs;
  let jobs =
    match jobs with Some j -> max 1 j | None -> Par.default_jobs ()
  in
  let n = List.length inputs in
  let nchunks = max 1 (min jobs n) in
  Obs.span obs "store.shard.merge"
    ~attrs:
      [
        ("jobs", Json.Int jobs);
        ("profiles", Json.Int n);
        ("chunks", Json.Int nchunks);
      ]
    (fun () ->
      let t0 = Unix.gettimeofday () in
      Obs.count obs "store.shard.profiles" n;
      Obs.count obs "store.shard.chunks" nchunks;
      let result =
        if nchunks = 1 then
          match fold_chunk inputs with
          | _, Some e -> Error e
          | st, None -> merge_result_internal ~snapshot:false st
        else
          let chunks = chunk_evenly inputs nchunks in
          let partials =
            Par.map ?obs ~name:"store.shard" ~jobs fold_chunk chunks
          in
          let acc = merge_create () in
          let rec combine = function
            | [] -> merge_result_internal ~snapshot:false acc
            | (_, Some e) :: _ -> Error e
            | (st, None) :: rest -> (
                match merge_absorb acc st with
                | Ok () -> combine rest
                | Error e -> Error e)
          in
          combine partials
      in
      let dt = Unix.gettimeofday () -. t0 in
      if dt > 0.0 then
        Obs.set_gauge obs "store.shard.profiles_per_sec"
          (float_of_int n /. dt);
      result)

let merge_by_program ?obs ?jobs inputs =
  check_weights ~who:"Store.merge_by_program" inputs;
  if inputs = [] then []
  else begin
    let jobs =
      match jobs with Some j -> max 1 j | None -> Par.default_jobs ()
    in
    (* Group by program digest, preserving first-appearance order. *)
    let order = ref [] in
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun ((a, _) as input) ->
        let digest = a.header.program_digest in
        match Hashtbl.find_opt tbl digest with
        | Some l -> l := input :: !l
        | None ->
            Hashtbl.add tbl digest (ref [ input ]);
            order := digest :: !order)
      inputs;
    let digests = List.rev !order in
    let groups =
      List.map (fun d -> (d, List.rev !(Hashtbl.find tbl d))) digests
    in
    let total = List.length inputs in
    (* Each group gets a chunk count proportional to its share of the
       inputs, so one giant program still spreads over the pool while
       many small programs cost one task each. *)
    let tasks =
      List.concat_map
        (fun (digest, ginputs) ->
          let glen = List.length ginputs in
          let share = max 1 (min glen (glen * jobs / total)) in
          List.map (fun chunk -> (digest, chunk)) (chunk_evenly ginputs share))
        groups
    in
    Obs.span obs "store.shard.merge"
      ~attrs:
        [
          ("jobs", Json.Int jobs);
          ("profiles", Json.Int total);
          ("programs", Json.Int (List.length groups));
          ("chunks", Json.Int (List.length tasks));
        ]
      (fun () ->
        let t0 = Unix.gettimeofday () in
        Obs.count obs "store.shard.profiles" total;
        Obs.count obs "store.shard.chunks" (List.length tasks);
        let partials =
          Par.map ?obs ~name:"store.shard" ~jobs
            (fun (digest, chunk) -> (digest, fold_chunk chunk))
            tasks
        in
        let states : (string, merge_state * error option) Hashtbl.t =
          Hashtbl.create 16
        in
        List.iter
          (fun (digest, (st, err)) ->
            match Hashtbl.find_opt states digest with
            | None -> Hashtbl.replace states digest (st, err)
            | Some (_, Some _) -> ()
            | Some (acc, None) -> (
                match err with
                | Some e -> Hashtbl.replace states digest (acc, Some e)
                | None -> (
                    match merge_absorb acc st with
                    | Ok () -> ()
                    | Error e -> Hashtbl.replace states digest (acc, Some e))))
          partials;
        let results =
          List.map
            (fun digest ->
              match Hashtbl.find states digest with
              | _, Some e -> (digest, Error e)
              | st, None ->
                  (digest, merge_result_internal ~snapshot:false st))
            digests
        in
        let dt = Unix.gettimeofday () -. t0 in
        if dt > 0.0 then
          Obs.set_gauge obs "store.shard.profiles_per_sec"
            (float_of_int total /. dt);
        results)
  end

(* {1 Plans} *)

let emit_plan w (plan : Pipeline.plan) =
  let cfg = json_of_pipeline_config plan.Pipeline.config in
  (match cfg with
  | Json.Obj fields -> wline w (Json.Obj (("p", Json.String "config") :: fields))
  | _ -> assert false);
  emit_profile w plan.Pipeline.profile;
  let g = plan.Pipeline.grouping in
  wline w
    (Json.Obj
       [
         ("p", Json.String "grouping");
         ( "groups",
           Json.List
             (Array.to_list
                (Array.map
                   (fun members ->
                     Json.List (List.map (fun c -> Json.Int c) members))
                   g.Grouping.groups)) );
         ( "accesses",
           Json.List
             (Array.to_list
                (Array.map (fun n -> Json.Int n) g.Grouping.group_accesses)) );
         ( "weights",
           Json.List
             (Array.to_list
                (Array.map (fun n -> Json.Int n) g.Grouping.group_weights)) );
         ( "ungrouped",
           Json.List (List.map (fun c -> Json.Int c) g.Grouping.ungrouped) );
       ]);
  List.iter
    (fun (sel : Identify.selector) ->
      wline w
        (Json.Obj
           [
             ("p", Json.String "selector");
             ("group", Json.Int sel.Identify.group);
             ( "disjuncts",
               Json.List
                 (List.map
                    (fun conj ->
                      Json.List (List.map (fun s -> Json.Int s) conj))
                    sel.Identify.disjuncts) );
           ]))
    plan.Pipeline.selectors;
  let r = plan.Pipeline.rewrite in
  wline w
    (Json.Obj
       [
         ("p", Json.String "rewrite");
         ("nbits", Json.Int r.Rewrite.nbits);
         ( "patches",
           Json.List
             (List.map
                (fun (site, bit) -> Json.List [ Json.Int site; Json.Int bit ])
                r.Rewrite.patches) );
         ( "selectors",
           Json.List
             (List.map
                (fun (c : Rewrite.compiled) ->
                  Json.Obj
                    [
                      ("group", Json.Int c.Rewrite.group);
                      ( "conjs",
                        Json.List
                          (List.map
                             (fun conj ->
                               Json.List
                                 (List.map (fun b -> Json.Int b) conj))
                             c.Rewrite.conjs) );
                    ])
                r.Rewrite.selectors) );
       ])

let bemit_plan w (plan : Pipeline.plan) =
  brecord w (fun b ->
      Wire.u8 b tag_config;
      Wire.bytes b
        (Json.to_string ~pretty:false
           (json_of_pipeline_config plan.Pipeline.config)));
  bemit_profile w plan.Pipeline.profile;
  let g = plan.Pipeline.grouping in
  brecord w (fun b ->
      Wire.u8 b tag_grouping;
      Wire.varint b (Array.length g.Grouping.groups);
      Array.iter
        (fun members ->
          Wire.varint b (List.length members);
          List.iter (Wire.varint b) members)
        g.Grouping.groups;
      Array.iter (Wire.varint b) g.Grouping.group_accesses;
      Array.iter (Wire.varint b) g.Grouping.group_weights;
      Wire.varint b (List.length g.Grouping.ungrouped);
      List.iter (Wire.varint b) g.Grouping.ungrouped);
  List.iter
    (fun (sel : Identify.selector) ->
      brecord w (fun b ->
          Wire.u8 b tag_selector;
          Wire.varint b sel.Identify.group;
          Wire.varint b (List.length sel.Identify.disjuncts);
          List.iter
            (fun conj ->
              Wire.varint b (List.length conj);
              List.iter (Wire.varint b) conj)
            sel.Identify.disjuncts))
    plan.Pipeline.selectors;
  let r = plan.Pipeline.rewrite in
  brecord w (fun b ->
      Wire.u8 b tag_rewrite;
      Wire.varint b r.Rewrite.nbits;
      Wire.varint b (List.length r.Rewrite.patches);
      List.iter
        (fun (site, bit) ->
          Wire.varint b site;
          Wire.varint b bit)
        r.Rewrite.patches;
      Wire.varint b (List.length r.Rewrite.selectors);
      List.iter
        (fun (c : Rewrite.compiled) ->
          Wire.varint b c.Rewrite.group;
          Wire.varint b (List.length c.Rewrite.conjs);
          List.iter
            (fun conj ->
              Wire.varint b (List.length conj);
              List.iter (Wire.varint b) conj)
            c.Rewrite.conjs)
        r.Rewrite.selectors)

let write_plan ?obs ?(format = V1) ?created ?(producer = "halo")
    ?(extra_meta = []) ~path ~program_digest (plan : Pipeline.plan) =
  let created =
    match created with Some t -> t | None -> Unix.gettimeofday ()
  in
  let header =
    {
      version = format_version format;
      kind = "plan";
      program_digest;
      config_digest = plan_config_digest plan.Pipeline.config;
      created;
      producer;
      meta = extra_meta;
    }
  in
  with_artifact ?obs ~format ~path ~header
    ~emit_v1:(fun w -> emit_plan w plan)
    ~emit_v2:(fun w -> bemit_plan w plan)
    ()

let int_lists ~line k j =
  List.map
    (function
      | Json.List l ->
          List.map
            (function
              | Json.Int i -> i
              | _ -> fail line (Printf.sprintf "field %S must hold integer lists" k))
            l
      | _ -> fail line (Printf.sprintf "field %S must hold lists" k))
    (jlist ~line k j)

let read_plan ?obs ?expect_program ?expect_config path =
  Obs.span obs "store.decode"
    ~attrs:[ ("kind", Json.String "plan"); ("path", Json.String path) ]
    (fun () ->
      wrap (fun () ->
          let fmt, header, payload = read_artifact path in
          note_decode obs fmt;
          if header.kind <> "plan" then
            raise
              (Decode (Wrong_kind { found = header.kind; expected = "plan" }));
          check_expect ~field:"program" ~found:header.program_digest
            expect_program;
          check_expect ~field:"config" ~found:header.config_digest
            expect_config;
          let st = new_profile_state () in
          let config = ref None in
          let grouping = ref None in
          let selectors = ref [] in
          let rewrite = ref None in
          (match payload with
          | Lines lines ->
              List.iter
                (fun (line, j) ->
                  let tag = jstring ~line "p" j in
                  if not (handle_profile_line st ~line tag j) then
                    match tag with
                    | "config" ->
                        if !config <> None then fail line "duplicate config line";
                        config := Some (pipeline_config_of_json ~line j)
                    | "grouping" ->
                        if !grouping <> None then
                          fail line "duplicate grouping line";
                        let groups =
                          Array.of_list (int_lists ~line "groups" j)
                        in
                        let accesses =
                          Array.of_list (jints ~line "accesses" j)
                        in
                        let weights = Array.of_list (jints ~line "weights" j) in
                        if
                          Array.length accesses <> Array.length groups
                          || Array.length weights <> Array.length groups
                        then
                          fail line
                            "grouping arrays (groups, accesses, weights) differ in length";
                        grouping :=
                          Some
                            {
                              Grouping.groups;
                              group_accesses = accesses;
                              group_weights = weights;
                              ungrouped = jints ~line "ungrouped" j;
                            }
                    | "selector" ->
                        selectors :=
                          {
                            Identify.group = jint ~line "group" j;
                            disjuncts = int_lists ~line "disjuncts" j;
                          }
                          :: !selectors
                    | "rewrite" ->
                        if !rewrite <> None then
                          fail line "duplicate rewrite line";
                        let patches =
                          List.map
                            (function
                              | [ site; bit ] -> (site, bit)
                              | _ -> fail line "patches must be [site, bit] pairs")
                            (int_lists ~line "patches" j)
                        in
                        let compiled =
                          List.map
                            (fun sj ->
                              {
                                Rewrite.group = jint ~line "group" sj;
                                conjs = int_lists ~line "conjs" sj;
                              })
                            (jlist ~line "selectors" j)
                        in
                        rewrite :=
                          Some
                            {
                              Rewrite.patches;
                              selectors = compiled;
                              nbits = jint ~line "nbits" j;
                            }
                    | tag ->
                        fail line (Printf.sprintf "unknown payload tag %S" tag))
                lines
          | Records records ->
              List.iter
                (fun (line, d) ->
                  try
                    let tag = Wire.read_u8 d in
                    if not (handle_profile_record st ~line tag d) then
                      if tag = tag_config then begin
                        if !config <> None then
                          fail line "duplicate config record";
                        let j =
                          match Json.of_string (Wire.read_bytes d) with
                          | Ok j -> j
                          | Error e -> fail line e
                        in
                        config := Some (pipeline_config_of_json ~line j)
                      end
                      else if tag = tag_grouping then begin
                        if !grouping <> None then
                          fail line "duplicate grouping record";
                        let ngroups = read_len ~line d in
                        let groups = Array.make ngroups [] in
                        for i = 0 to ngroups - 1 do
                          groups.(i) <- rint_list ~line d
                        done;
                        let accesses = Array.make ngroups 0 in
                        for i = 0 to ngroups - 1 do
                          accesses.(i) <- Wire.read_varint d
                        done;
                        let weights = Array.make ngroups 0 in
                        for i = 0 to ngroups - 1 do
                          weights.(i) <- Wire.read_varint d
                        done;
                        grouping :=
                          Some
                            {
                              Grouping.groups;
                              group_accesses = accesses;
                              group_weights = weights;
                              ungrouped = rint_list ~line d;
                            }
                      end
                      else if tag = tag_selector then begin
                        let group = Wire.read_varint d in
                        let n = read_len ~line d in
                        let rec disjuncts i acc =
                          if i = n then List.rev acc
                          else disjuncts (i + 1) (rint_list ~line d :: acc)
                        in
                        selectors :=
                          { Identify.group; disjuncts = disjuncts 0 [] }
                          :: !selectors
                      end
                      else if tag = tag_rewrite then begin
                        if !rewrite <> None then
                          fail line "duplicate rewrite record";
                        let nbits = Wire.read_varint d in
                        let np = read_len ~line d in
                        let rec patches i acc =
                          if i = np then List.rev acc
                          else
                            let site = Wire.read_varint d in
                            let bit = Wire.read_varint d in
                            patches (i + 1) ((site, bit) :: acc)
                        in
                        let patches = patches 0 [] in
                        let ns = read_len ~line d in
                        let rec compiled i acc =
                          if i = ns then List.rev acc
                          else begin
                            let group = Wire.read_varint d in
                            let nc = read_len ~line d in
                            let rec conjs k acc =
                              if k = nc then List.rev acc
                              else conjs (k + 1) (rint_list ~line d :: acc)
                            in
                            compiled (i + 1)
                              ({ Rewrite.group; conjs = conjs 0 [] } :: acc)
                          end
                        in
                        rewrite :=
                          Some
                            {
                              Rewrite.patches;
                              selectors = compiled 0 [];
                              nbits;
                            }
                      end
                      else
                        fail line
                          (Printf.sprintf "unknown record tag 0x%02x" tag);
                    Wire.expect_end d
                  with Wire.Error r -> fail line r)
                records);
          let require what = function
            | Some v -> v
            | None -> fail 0 (Printf.sprintf "artifact has no %s line" what)
          in
          let config = require "config" !config in
          let self = plan_config_digest config in
          if self <> header.config_digest then
            raise
              (Decode
                 (Digest_mismatch
                    {
                      field = "config";
                      found = header.config_digest;
                      expected = self;
                    }));
          ( header,
            {
              Pipeline.config;
              profile = finish_profile st;
              grouping = require "grouping" !grouping;
              selectors = List.rev !selectors;
              rewrite = require "rewrite" !rewrite;
            } )))

(* {1 Inspection} *)

let read_header path =
  wrap (fun () ->
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          (* Sniff the container from the first bytes; neither path needs
             the payload, so only the header region is read. *)
          let start =
            let b = Bytes.create 8 in
            let n = input ic b 0 8 in
            Bytes.sub_string b 0 n
          in
          if String.equal start magic then begin
            let v =
              match input_char ic with
              | c -> Char.code c
              | exception End_of_file -> raise (Decode Truncated)
            in
            if v <> version_v2 then
              raise (Decode (Version_skew { found = v; supported = version_v2 }));
            let hlen =
              match really_input_string ic 4 with
              | s -> (
                  match Wire.read_u32 (Wire.dec s) with
                  | v -> v
                  | exception Wire.Error _ -> raise (Decode Truncated))
              | exception End_of_file -> raise (Decode Truncated)
            in
            let hs =
              try really_input_string ic hlen
              with End_of_file -> raise (Decode Truncated)
            in
            match Json.of_string hs with
            | Ok j -> parse_header ~line:1 ~expect:version_v2 j
            | Error e -> fail 1 e
          end
          else begin
            seek_in ic 0;
            let line =
              try input_line ic with End_of_file -> raise (Decode Truncated)
            in
            let line =
              (* CRLF tolerance, matching the full reader. *)
              let n = String.length line in
              if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1)
              else line
            in
            match Json.of_string line with
            | Ok j -> parse_header ~line:1 ~expect:version j
            | Error e -> fail 1 e
          end))

(* {1 Migration} *)

let migrate ?obs ~format ~src dst =
  match read_header src with
  | Error e -> Error e
  | Ok h when h.kind = "profile" -> (
      match read_profile ?obs src with
      | Error e -> Error e
      | Ok a -> (
          let extra_meta =
            List.filter (fun (k, _) -> k <> "profiler_config") a.header.meta
          in
          match
            write_profile ?obs ~format ~created:a.header.created
              ~producer:a.header.producer ~extra_meta ~path:dst
              ~program_digest:a.header.program_digest ~config:a.config a.result
          with
          | Error e -> Error e
          | Ok () -> Ok { a.header with version = format_version format }))
  | Ok h when h.kind = "plan" -> (
      match read_plan ?obs src with
      | Error e -> Error e
      | Ok (h, plan) -> (
          match
            write_plan ?obs ~format ~created:h.created ~producer:h.producer
              ~extra_meta:h.meta ~path:dst ~program_digest:h.program_digest plan
          with
          | Error e -> Error e
          | Ok () -> Ok { h with version = format_version format }))
  | Ok h -> Error (Wrong_kind { found = h.kind; expected = "profile or plan" })
