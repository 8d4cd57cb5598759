let format_name = "halo/store"
let version = 2

(* First 8 bytes of every artifact. *)
let magic = "HALOSTOR"

type format = V2

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

(* Strict field access: a [Json] accessor error becomes a [Malformed]
   carrying the 1-based record ordinal (the header is 1). *)
let jint ~line k j =
  match Json.get_int k j with Ok v -> v | Error e -> fail line e

let jfloat ~line k j =
  match Json.get_float k j with Ok v -> v | Error e -> fail line e

let jstring ~line k j =
  match Json.get_string k j with Ok v -> v | Error e -> fail line e

let jbool ~line k j =
  match Json.get_bool k j with Ok v -> v | Error e -> fail line e

let jobj ~line k j =
  match Json.get_obj k j with Ok v -> v | Error e -> fail line e

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

(* A profiler config no later stage would reject: the profiler raises on
   a non-positive distance or period, and the noise filter on a coverage
   outside (0, 1]. *)
let check_profiler_config ~line (c : Profiler.config) =
  let cov = c.Profiler.node_coverage in
  if not (Float.is_finite cov && cov > 0.0 && cov <= 1.0) then
    fail line (Printf.sprintf "node_coverage %g is outside (0, 1]" cov);
  if c.Profiler.affinity_distance <= 0 then
    fail line (Printf.sprintf "affinity_distance %d is not positive" c.Profiler.affinity_distance);
  if c.Profiler.sample_period < 1 then
    fail line (Printf.sprintf "sample_period %d is below 1" c.Profiler.sample_period);
  if c.Profiler.max_tracked_size < 0 then
    fail line (Printf.sprintf "max_tracked_size %d is negative" c.Profiler.max_tracked_size)

let profiler_config_of_json ~line j =
  let c =
    {
      Profiler.affinity_distance = jint ~line "affinity_distance" j;
      max_tracked_size = jint ~line "max_tracked_size" j;
      node_coverage = jfloat ~line "node_coverage" j;
      seed = jint ~line "seed" j;
      sample_period = jint ~line "sample_period" j;
    }
  in
  check_profiler_config ~line c;
  c

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


(* {1 Payload checksum: FNV-1a 64 over record frames}

    Chosen over [Digest] because it feeds incrementally, so the writer
    hashes each frame as it streams out; this is an integrity check
    against torn or edited files, not an authenticity measure. *)

let fnv_hex h = Printf.sprintf "%016Lx" h

(* {1 Container}

   Layout, all integers little-endian:

   {v
   magic    8 bytes   "HALOSTOR"
   version  u8        2
   hlen     u32       byte length of the header JSON
   header   hlen      canonical header JSON object
   record*            u32 frame length (>= 1), then that many bytes:
                      a tag byte and a tag-specific binary body
   sentinel u32       0 (no record is empty, so 0 terminates the stream)
   count    varint    number of records
   checksum i64       FNV-1a 64 over every record frame (length prefix
                      included)
   v}

   The reader loads the image once and decodes records in place through
   {!Wire.dec} windows — no per-record copies, which is what makes the
   layout mmap-friendly. Errors locate a record by its 1-based ordinal,
   reported as its "line": the header is line 1, the first record
   line 2. *)

(* Record tags. Profile and plan records share a namespace so the plan
   decoder can reuse the profile handler. *)
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

(* {1 Writer} *)

type writer = {
  oc : out_channel;
  buf : Buffer.t;
  mutable hash : int64;
  mutable records : int;
}

(* Build one framed record in the scratch buffer (4 zero bytes reserved
   for the length prefix, patched after the body is known), hash the
   whole frame, stream it out. *)
let record w fill =
  let b = w.buf in
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
  w.hash <- Fnv.feed w.hash frame 0 (String.length frame);
  output_string w.oc frame;
  w.records <- w.records + 1

let start_writer oc h =
  output_string oc magic;
  output_char oc (Char.chr version);
  let hs = Json.to_string ~pretty:false (header_json h) in
  let b = Buffer.create 16 in
  Wire.u32 b (String.length hs);
  output_string oc (Buffer.contents b);
  output_string oc hs;
  { oc; buf = Buffer.create 256; hash = Fnv.offset; records = 0 }

let finish_writer w =
  let b = Buffer.create 24 in
  Wire.u32 b 0;
  Wire.varint b w.records;
  Wire.i64 b w.hash;
  output_string w.oc (Buffer.contents b)

let with_artifact ?obs ~path ~header emit =
  Obs.span obs "store.encode"
    ~attrs:
      [
        ("kind", Json.String header.kind);
        ("path", Json.String path);
        ("format", Json.Int version);
      ]
    (fun () ->
      try
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            let w = start_writer oc header in
            emit w;
            finish_writer w;
            Obs.add_attrs obs [ ("payload_records", Json.Int w.records) ];
            Obs.count obs "store.codec.v2.encodes" 1;
            Obs.observe obs "store.codec.encode_bytes"
              (float_of_int (pos_out oc)));
        Ok ()
      with Sys_error m -> Error (Io m))

(* Canonical payload order: equal values encode to equal bytes. Contexts
   go in id order (so re-interning reproduces the ids), nodes ascending,
   edges sorted by endpoint pair. *)

let emit_graph w gtag g =
  (match Affinity_graph.reported_total g with
  | None -> ()
  | Some v ->
      record w (fun b ->
          Wire.u8 b tag_total;
          Wire.u8 b gtag;
          Wire.varint b v));
  List.iter
    (fun id ->
      record w (fun b ->
          Wire.u8 b tag_node;
          Wire.u8 b gtag;
          Wire.varint b id;
          Wire.varint b (Affinity_graph.node_accesses g id)))
    (Affinity_graph.nodes g);
  List.iter
    (fun (x, y, wt) ->
      record w (fun b ->
          Wire.u8 b tag_edge;
          Wire.u8 b gtag;
          Wire.varint b x;
          Wire.varint b y;
          Wire.varint b wt))
    (List.sort compare (Affinity_graph.edges g))

let emit_profile w (r : Profiler.result) =
  record w (fun b ->
      Wire.u8 b tag_meta;
      Wire.varint b r.Profiler.total_accesses;
      Wire.varint b r.Profiler.tracked_allocs;
      Wire.varint b r.Profiler.instructions);
  let tbl = r.Profiler.contexts in
  for id = 0 to Context.count tbl - 1 do
    record w (fun b ->
        Wire.u8 b tag_ctx;
        Wire.varint b id;
        let sites = Context.sites tbl id in
        Wire.varint b (Array.length sites);
        Array.iter (Wire.varint b) sites)
  done;
  emit_graph w gr_raw r.Profiler.raw_graph;
  emit_graph w gr_filtered r.Profiler.graph

(* {1 Reader} *)

let parse_header j =
  let line = 1 in
  let fmt = jstring ~line "format" j in
  if fmt <> format_name then
    fail line (Printf.sprintf "not a %s artifact (format %S)" format_name fmt);
  let v = jint ~line "version" j in
  if v <> version then
    raise (Decode (Version_skew { found = v; supported = version }));
  {
    version = v;
    kind = jstring ~line "kind" j;
    program_digest = jstring ~line "program" j;
    config_digest = jstring ~line "config" j;
    created = jfloat ~line "created" j;
    producer = jstring ~line "producer" j;
    meta = jobj ~line "meta" j;
  }

let header_of_string s =
  match Json.of_string s with Ok j -> parse_header j | Error e -> fail 1 e

let u32_le s pos =
  let g i = Char.code (String.unsafe_get s (pos + i)) in
  g 0 lor (g 1 lsl 8) lor (g 2 lsl 16) lor (g 3 lsl 24)

let prefix_len = String.length magic + 5

(* Check the fixed prefix — magic, version byte, header length — of a
   [total]-byte image whose first [min total prefix_len] bytes are
   [prefix]. The header length is checked against [total] before anything
   is read or allocated for it. Returns that length. *)
let check_prefix prefix ~total =
  let m = String.length magic in
  if total < m then raise (Decode Truncated);
  if not (String.equal (String.sub prefix 0 m) magic) then
    fail 0
      (Printf.sprintf "missing the %S magic: not a %s artifact" magic
         format_name);
  if total = m then raise (Decode Truncated);
  let v = Char.code prefix.[m] in
  if v <> version then
    raise (Decode (Version_skew { found = v; supported = version }));
  if total < prefix_len then raise (Decode Truncated);
  let hlen = u32_le prefix (m + 1) in
  if prefix_len + hlen > total then raise (Decode Truncated);
  hlen

(* Scan a whole image: header, then every record frame (counted,
   checksummed, bounds-checked), then the trailer. Records come back as
   (1-based ordinal, in-place cursor) — no payload bytes are copied. *)
let read_records data =
  let total = String.length data in
  let hlen = check_prefix data ~total in
  let header = header_of_string (String.sub data prefix_len hlen) in
  let u32_at pos =
    if pos + 4 > total then raise (Decode Truncated);
    u32_le data pos
  in
  let rec loop pos count hash acc =
    let rlen = u32_at pos in
    let line = count + 2 in
    if rlen = 0 then begin
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
      let hash = Fnv.feed hash data pos (4 + rlen) in
      let d = Wire.dec ~pos:(pos + 4) ~len:rlen data in
      loop (pos + 4 + rlen) (count + 1) hash ((line, d) :: acc)
  in
  loop (prefix_len + hlen) 0 Fnv.offset []

let read_artifact path =
  read_records (In_channel.with_open_bin path In_channel.input_all)

let check_expect ~field ~found = function
  | Some expected when expected <> found ->
      raise (Decode (Digest_mismatch { field; found; expected }))
  | _ -> ()

let wrap f =
  match f () with
  | v -> Ok v
  | exception Decode e -> Error e
  | exception Sys_error m -> Error (Io m)
  | exception End_of_file -> Error Truncated

let note_decode obs =
  Obs.add_attrs obs [ ("format", Json.Int version) ];
  Obs.count obs "store.codec.v2.decodes" 1

(* Decode every record through [handle], which returns [false] on tags it
   does not own. [Wire.Error] becomes [Malformed] at the record's
   ordinal. *)
let decode_records records handle =
  List.iter
    (fun (line, d) ->
      try
        let tag = Wire.read_u8 d in
        if not (handle ~line tag d) then
          fail line (Printf.sprintf "unknown record tag 0x%02x" tag);
        Wire.expect_end d
      with Wire.Error r -> fail line r)
    records

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

(* A length-prefixed list of elements, each decoded by [read]. *)
let read_list ~line d read =
  let n = read_len ~line d in
  let rec go i acc = if i = n then List.rev acc else go (i + 1) (read d :: acc) in
  go 0 []

let rint_list ~line d = read_list ~line d Wire.read_varint

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

let graph_of st ~line g =
  if g = gr_raw then st.raw
  else if g = gr_filtered then st.filtered
  else fail line (Printf.sprintf "unknown graph tag %d" g)

(* A graph endpoint must name a context decoded earlier: the canonical
   order puts every ctx record before the graphs, and consumers index
   per-context tables by these ids. *)
let read_node st ~line d =
  let id = Wire.read_varint d in
  if id < 0 || id >= Context.count st.ctxs then
    fail line (Printf.sprintf "graph node %d is not a decoded context" id);
  id

let read_count ~line what d =
  let n = Wire.read_varint d in
  if n < 0 then fail line (Printf.sprintf "negative %s %d" what n);
  n

(* Shared between profile and plan decoding. *)
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
    if n = 0 then fail line "context with no sites";
    let sites = Array.init n (fun _ -> Wire.read_varint d) in
    let got = Context.intern st.ctxs sites in
    if got <> id then
      fail line
        (Printf.sprintf
           "context %d interned as %d: ids must be dense, in order, distinct"
           id got);
    true
  end
  else if tag = tag_total then begin
    let g = graph_of st ~line (Wire.read_u8 d) in
    if Affinity_graph.reported_total g <> None then
      fail line "duplicate graph total record";
    Affinity_graph.set_reported_total g (Some (Wire.read_varint d));
    true
  end
  else if tag = tag_node then begin
    let g = graph_of st ~line (Wire.read_u8 d) in
    let id = read_node st ~line d in
    Affinity_graph.add_access_n g id (read_count ~line "access count" d);
    true
  end
  else if tag = tag_edge then begin
    let g = graph_of st ~line (Wire.read_u8 d) in
    let x = read_node st ~line d in
    let y = read_node st ~line d in
    Affinity_graph.add_affinity_n g x y (read_count ~line "edge weight" d);
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

let write_profile ?obs ?format:(_ : format option) ?created
    ?(producer = "halo") ?(extra_meta = []) ~path ~program_digest ~config
    result =
  let created =
    match created with Some t -> t | None -> Unix.gettimeofday ()
  in
  let header =
    {
      version;
      kind = "profile";
      program_digest;
      config_digest = profile_config_digest config;
      created;
      producer;
      meta = ("profiler_config", json_of_profiler_config config) :: extra_meta;
    }
  in
  with_artifact ?obs ~path ~header (fun w -> emit_profile w result)

let read_profile ?obs ?expect_program path =
  Obs.span obs "store.decode"
    ~attrs:[ ("kind", Json.String "profile"); ("path", Json.String path) ]
    (fun () ->
      wrap (fun () ->
          let header, records = read_artifact path in
          note_decode obs;
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
          let st = new_profile_state () in
          decode_records records (handle_profile_record st);
          { header; config; result = finish_profile st }))

(* Weighted merging: one mutable accumulator per program. [merge_add]
   folds one weighted artifact into it, [merge_adopt] one persisted
   aggregate, and the batch [merge_profiles] is [merge_add] over its
   input; all go through [fold_artifact], so they cannot drift. *)

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

let check_weight ~who w =
  if (not (Float.is_finite w)) || w <= 0.0 then
    invalid_arg (who ^ ": weights must be positive and finite")

let merge_scale w n = int_of_float (Float.round (w *. float_of_int n))

(* Fold one artifact's counts into [st]: check its config, pin (or
   check) the program and config digests, re-intern its contexts into
   the shared table in id order, add [scale]d node and edge counts to the
   running raw graph and the [scale]d totals, and credit [count] runs of
   [weight]. A rejected artifact leaves [st] unchanged. *)
let fold_artifact st (a : profile_artifact) ~scale ~count ~weight =
  wrap (fun () ->
      check_profiler_config ~line:1 a.config;
      let program = a.header.program_digest
      and config_digest = a.header.config_digest in
      (match st.m_first with
      | None -> st.m_first <- Some (program, config_digest, a.config)
      | Some (p, c, _) ->
          let mismatch field found expected =
            raise (Decode (Digest_mismatch { field; found; expected }))
          in
          if program <> p then mismatch "program" program p;
          if config_digest <> c then mismatch "config" config_digest c);
      let r = a.result in
      let contexts = r.Profiler.contexts and raw = r.Profiler.raw_graph in
      let remap =
        Array.init (Context.count contexts) (fun id ->
            Context.intern st.m_contexts (Context.sites contexts id))
      in
      List.iter
        (fun id ->
          Affinity_graph.add_access_n st.m_raw remap.(id)
            (scale (Affinity_graph.node_accesses raw id)))
        (Affinity_graph.nodes raw);
      List.iter
        (fun (x, y, wt) ->
          Affinity_graph.add_affinity_n st.m_raw remap.(x) remap.(y) (scale wt))
        (Affinity_graph.edges raw);
      st.m_ta <- st.m_ta + scale r.Profiler.total_accesses;
      st.m_tr <- st.m_tr + scale r.Profiler.tracked_allocs;
      st.m_ins <- st.m_ins + scale r.Profiler.instructions;
      st.m_count <- st.m_count + count;
      st.m_weight <- st.m_weight +. weight)

let merge_add st (a, w) =
  check_weight ~who:"Store.merge_add" w;
  fold_artifact st a ~scale:(merge_scale w) ~count:1 ~weight:w

let merge_adopt st ~mass ~count artifact =
  if (not (Float.is_finite mass)) || mass <= 0.0 then
    invalid_arg "Store.merge_adopt: mass must be positive and finite";
  if count < 0 then invalid_arg "Store.merge_adopt: negative count";
  fold_artifact st artifact ~scale:Fun.id ~count ~weight:mass

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
  List.iter (fun (_, w) -> check_weight ~who:"Store.merge_profiles" w) inputs;
  let st = merge_create () in
  let rec go = function
    | [] -> merge_result_internal ~snapshot:false st
    | input :: rest -> Result.bind (merge_add st input) (fun () -> go rest)
  in
  go inputs

(* {1 Plans} *)

let emit_plan w (plan : Pipeline.plan) =
  record w (fun b ->
      Wire.u8 b tag_config;
      Wire.bytes b
        (Json.to_string ~pretty:false
           (json_of_pipeline_config plan.Pipeline.config)));
  emit_profile w plan.Pipeline.profile;
  let g = plan.Pipeline.grouping in
  record w (fun b ->
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
      record w (fun b ->
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
  record w (fun b ->
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

let write_plan ?obs ?format:(_ : format option) ?created ?(producer = "halo")
    ?(extra_meta = []) ~path ~program_digest (plan : Pipeline.plan) =
  let created =
    match created with Some t -> t | None -> Unix.gettimeofday ()
  in
  let header =
    {
      version;
      kind = "plan";
      program_digest;
      config_digest = plan_config_digest plan.Pipeline.config;
      created;
      producer;
      meta = extra_meta;
    }
  in
  with_artifact ?obs ~path ~header (fun w -> emit_plan w plan)

let read_plan ?obs ?expect_program ?expect_config path =
  Obs.span obs "store.decode"
    ~attrs:[ ("kind", Json.String "plan"); ("path", Json.String path) ]
    (fun () ->
      wrap (fun () ->
          let header, records = read_artifact path in
          note_decode obs;
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
          let handle ~line tag d =
            if handle_profile_record st ~line tag d then true
            else if tag = tag_config then begin
              if !config <> None then fail line "duplicate config record";
              (match Json.of_string (Wire.read_bytes d) with
              | Ok j -> config := Some (pipeline_config_of_json ~line j)
              | Error e -> fail line e);
              true
            end
            else if tag = tag_grouping then begin
              if !grouping <> None then fail line "duplicate grouping record";
              let groups = Array.of_list (read_list ~line d (rint_list ~line)) in
              let n = Array.length groups in
              let group_accesses = Array.init n (fun _ -> Wire.read_varint d) in
              let group_weights = Array.init n (fun _ -> Wire.read_varint d) in
              let ungrouped = rint_list ~line d in
              grouping :=
                Some
                  { Grouping.groups; group_accesses; group_weights; ungrouped };
              true
            end
            else if tag = tag_selector then begin
              let group = Wire.read_varint d in
              let disjuncts = read_list ~line d (rint_list ~line) in
              selectors := { Identify.group; disjuncts } :: !selectors;
              true
            end
            else if tag = tag_rewrite then begin
              if !rewrite <> None then fail line "duplicate rewrite record";
              let nbits = Wire.read_varint d in
              let patches =
                read_list ~line d (fun d ->
                    let site = Wire.read_varint d in
                    (site, Wire.read_varint d))
              in
              let selectors =
                read_list ~line d (fun d ->
                    let group = Wire.read_varint d in
                    { Rewrite.group; conjs = read_list ~line d (rint_list ~line) })
              in
              rewrite := Some { Rewrite.patches; selectors; nbits };
              true
            end
            else false
          in
          decode_records records handle;
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

(* Only the fixed prefix and the header are read, never the payload. *)
let read_header path =
  wrap (fun () ->
      In_channel.with_open_bin path (fun ic ->
          let total = Int64.to_int (In_channel.length ic) in
          let prefix = really_input_string ic (min total prefix_len) in
          let hlen = check_prefix prefix ~total in
          header_of_string (really_input_string ic hlen)))
