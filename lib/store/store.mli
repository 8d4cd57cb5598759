(** Persistent, versioned artifact store for profiles and plans.

    The pipeline's record and apply phases communicate through on-disk
    artifacts in one binary container, version {!version}:

    - an 8-byte magic ["HALOSTOR"] and a version byte;
    - a length-prefixed, self-describing {e header} JSON object — format
      name, format version, artifact kind, structural program digest
      ({!Ir_digest}), configuration digest, creation metadata;
    - length-prefixed binary {e records} (zigzag-LEB128 varints via
      {!Wire}), emitted in a canonical order (contexts in id order,
      sorted nodes and edges) so equal values encode to equal bytes;
    - a zero sentinel and a {e trailer} carrying the record count and an
      FNV-1a 64 checksum of the record frames, written after the fact so
      the writer streams.

    The reader loads the image once and decodes records in place.
    Decoding is strict: a missing magic, unknown tag, missing field,
    type mismatch, out-of-range value, count mismatch, version skew or
    checksum failure is a typed {!error}, never a silent partial
    artifact and never another exception.

    Observability: encode/decode spans carry a [format] attribute, and
    the [store.codec.v2.encodes] / [store.codec.v2.decodes] counters and
    [store.codec.encode_bytes] histogram account codec traffic. *)

val format_name : string
(** ["halo/store"], the header's [format] field. *)

val version : int
(** The artifact format version: 2, the only one this build reads or
    writes. *)

type format = V2
(** Kept only for the benchmark directory ([halobench/]), which passes
    [~format:V2] to {!write_profile} and {!write_plan}; the argument is
    ignored. Delete both once that directory may change. *)

type header = {
  version : int;
  kind : string;  (** ["profile"] or ["plan"]. *)
  program_digest : string;  (** {!Ir_digest.program} of the profiled program. *)
  config_digest : string;
      (** {!profile_config_digest} or {!plan_config_digest} of the
          producing configuration. *)
  created : float;  (** Unix time of encoding. *)
  producer : string;  (** Tool identifier, e.g. ["halo_cli"]. *)
  meta : (string * Json.t) list;  (** Kind-specific extras. *)
}

type error =
  | Io of string
  | Malformed of { line : int; reason : string }
      (** [line] is the 1-based ordinal of the offending unit — 1 is the
          header, 2 the first record; 0 means the artifact as a whole. *)
  | Version_skew of { found : int; supported : int }
  | Wrong_kind of { found : string; expected : string }
  | Digest_mismatch of { field : string; found : string; expected : string }
  | Bad_checksum of { stated : string; computed : string }
  | Truncated  (** EOF before the end of the trailer. *)

val error_to_string : error -> string

(** {1 Digests} *)

val profile_config_digest : Profiler.config -> string
(** Hex MD5 of the canonical profiler-config JSON {e with the seed
    masked}: recordings of the same program under different input seeds
    are the same experiment observed twice, and must stay mergeable. *)

val plan_config_digest : Pipeline.config -> string
(** Hex MD5 of the full canonical pipeline-config JSON (profiler seed
    included — it determines the profile a plan was derived from). One half
    of the plan cache key. *)

(** {1 Profiles} *)

type profile_artifact = {
  header : header;
  config : Profiler.config;  (** Decoded from the header meta. *)
  result : Profiler.result;
}

val write_profile :
  ?obs:Obs.t ->
  ?format:format ->
  ?created:float ->
  ?producer:string ->
  ?extra_meta:(string * Json.t) list ->
  path:string ->
  program_digest:string ->
  config:Profiler.config ->
  Profiler.result ->
  (unit, error) result
(** Encode one profiling run. [format] is ignored (see {!format});
    [created] and [producer] default to [Unix.gettimeofday ()] and
    ["halo"]; golden tests pin them. [obs] records the [store.encode]
    span. *)

val read_profile :
  ?obs:Obs.t ->
  ?expect_program:string ->
  string ->
  (profile_artifact, error) result
(** Decode a profile artifact. [expect_program] rejects artifacts
    recorded from a structurally different program with
    [Digest_mismatch]. The decoded result round-trips: graphs, contexts
    (same ids), totals are structurally equal to what was written. A
    header profiler config that the profiler or the noise filter would
    reject ([node_coverage] outside (0, 1] or non-finite,
    [affinity_distance <= 0], [sample_period < 1],
    [max_tracked_size < 0]) is [Malformed]. [obs] records the
    [store.decode] span. *)

val merge_profiles :
  (profile_artifact * float) list ->
  (Profiler.config * Profiler.result, error) result
(** Weighted cross-run merge: raw graphs are combined with per-run access
    and edge counts scaled by the run's weight (rounded to nearest), then
    the noise filter re-runs over the {e merged} raw graph at the shared
    config's [node_coverage] — a context hot in one input but cold overall
    filters the way a single combined run would. All inputs must agree on
    program and config digests ([Digest_mismatch] citing the first input
    that disagrees, otherwise); raises [Invalid_argument] on an empty list
    or a non-positive weight. Returns the shared config (the first
    artifact's) and the merged result, ready for {!write_profile}. It is
    the fold below: {!merge_add} on each input in order, then
    {!merge_result}. *)

(** {2 Incremental merging}

    The batch merge needs every input up front; long-running aggregation
    (the serve loop folding fleet profiles as they arrive) instead keeps
    one {!merge_state} per program and feeds it one artifact at a time.
    Folding artifacts one by one through {!merge_add} and finishing with
    {!merge_result} produces exactly {!merge_profiles} of the same list
    in the same order. *)

type merge_state

val merge_create : unit -> merge_state
(** An empty accumulator. The first {!merge_add} pins the program and
    config digests every later artifact must match. *)

val merge_add : merge_state -> profile_artifact * float -> (unit, error) result
(** Fold one weighted artifact into the accumulator: contexts are
    re-interned into the shared table, scaled node/edge counts added to
    the running raw graph, totals accumulated. [Digest_mismatch] when the
    artifact disagrees with the first one on program or config digest,
    [Malformed] when its config is one {!read_profile} would reject
    (the state is unchanged on error); raises [Invalid_argument] on a
    non-positive or non-finite weight, as {!merge_profiles} does. *)

val merge_count : merge_state -> int
(** Artifacts folded in so far. *)

val merge_total_weight : merge_state -> float
(** Sum of the folded weights — the serve loop's "profile mass", which
    its plan-staleness policy thresholds against. *)

val merge_result :
  merge_state -> (Profiler.config * Profiler.result, error) result
(** The merged profile as of now: the noise filter runs over the
    accumulated raw graph at the shared config's [node_coverage]. The
    returned result is a {e snapshot} — graphs and contexts are copied,
    so later {!merge_add} calls do not mutate it. Raises
    [Invalid_argument] on an empty state, mirroring {!merge_profiles} on
    an empty list. *)

val merge_adopt :
  merge_state ->
  mass:float ->
  count:int ->
  profile_artifact ->
  (unit, error) result
(** Re-adopt a previously merged-and-persisted aggregate: fold the
    artifact's counts in {e unscaled} (they already carry their weights)
    while crediting [mass] total weight and [count] constituent
    profiles. This is how a restarted serve daemon resumes an aggregate
    saved by {!write_profile} without double-scaling it. Errors as
    {!merge_add}; raises [Invalid_argument] on a non-positive [mass] or
    negative [count]. *)

(** {1 Plans} *)

val write_plan :
  ?obs:Obs.t ->
  ?format:format ->
  ?created:float ->
  ?producer:string ->
  ?extra_meta:(string * Json.t) list ->
  path:string ->
  program_digest:string ->
  Pipeline.plan ->
  (unit, error) result
(** Encode a complete plan: pipeline config, embedded profile, grouping,
    selectors and rewrite. [format] is ignored (see {!format}). The
    header's config digest is [plan_config_digest plan.config]. *)

val read_plan :
  ?obs:Obs.t ->
  ?expect_program:string ->
  ?expect_config:string ->
  string ->
  (header * Pipeline.plan, error) result
(** Decode a plan artifact; [expect_config] compares against the header's config digest (the
    cache's key check). The decoded plan's config is re-digested and
    verified against the header — a tampered config body is a
    [Digest_mismatch], not a silently different plan. *)

(** {1 Inspection} *)

val read_header : string -> (header, error) result
(** Read and validate the header only — kind sniffing for
    [profile inspect] without decoding the payload. A file without the
    magic is [Malformed] at line 0; one shorter than the magic, or whose
    stated header length runs past the end of the file, is [Truncated]
    (checked before the header is read). *)
