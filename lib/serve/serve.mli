(** The continuous-profiling daemon: BOLT's data-center loop over HALO's
    batch pipeline.

    Profiles stream in from a fleet as {!Serve_proto.payload}
    [profile-record] jobs and fold into one incremental
    {!Store.merge_state} per program (keyed by {!Ir_digest.program});
    [plan-request] jobs are answered from, in order of preference, the
    in-memory plan memo, the on-disk {!Plan_cache}, a derivation from the
    program's merged aggregate (no profiler run), or — only when the
    daemon has never seen the program at all — a full {!Pipeline.plan}.

    {b Staleness policy}: every aggregate remembers the profile mass
    (total merge weight) its current plan was derived at. When a record
    job pushes the new mass beyond [staleness_weight], the plan is
    invalidated {e eagerly} (counted as [serve.plan.invalidations], the
    in-memory memo dropped) and re-derived {e lazily} on the next
    request, overwriting the cache entry. Plans adopted from the disk
    cache are treated as fresh at adoption mass.

    {b Determinism}: job preworks (profiling, artifact decoding) fan out
    over a {!Par} pool in submission order; all state mutation happens in
    a sequential in-order fold, and responses carry no timings — so one
    job stream produces one byte-identical response stream at any
    [--jobs] count (given equal starting cache/aggregate state).

    {b Persistence}: when a plan cache is configured, per-program
    aggregates are saved on exit as profile artifacts under
    [<cache_dir>/aggregates/<digest>.profile.bin], carrying the
    aggregate's workload, profile mass and profile count in the header
    meta. {!create} reloads them (via {!Store.merge_adopt}), so a
    restarted daemon resumes fleet mass — and its staleness ledger —
    without re-profiling. Counted as [serve.aggregates.saved] /
    [serve.aggregates.loaded].

    {b Telemetry} (all under the given [obs]): per-job-type latency
    sketches [serve.job.<kind>.latency_s] (plus the combined
    [serve.job.latency_s]), the [serve.queue_depth] gauge,
    [serve.plan.{hits,misses,invalidations}] counters, per-kind
    [serve.jobs.<kind>] counters (one per job {!handle_batch} answers,
    plus [serve.jobs.errors] for lines that name no job) — exported
    through the normal {!Obs} trace sink and readable with [halo_cli
    telemetry report].
    Without [obs] a job reads no clock and builds no metric name.

    {b The serve loop}: [--stdin-batch] ({!run_channels}) and [--socket]
    ({!run_socket}) run one loop. After each read it takes the complete
    lines held, parses each once, answers a run of parsed jobs as one
    {!handle_batch}, and answers a line that names no job (unparsable, or
    over {!Serve_proto.max_line_bytes}) with an error response in its
    place. Because the fold is sequential, how reads split the stream
    never changes a response. *)

(** The serve loop's line framing over a raw file descriptor. One
    {!read} is one [Unix.read] (retried on [EINTR]; a short read is
    normal), so a caller that reads only when [select] reports data never
    blocks on a partial line. A line split across reads is reassembled,
    CRLF endings are stripped, and a final line with no trailing newline
    is still delivered. Reading a line costs time linear in its length,
    and a line longer than {!Serve_proto.max_line_bytes} is dropped as it
    arrives, so the buffer stays bounded. *)
module Line_reader : sig
  type t

  val create : ?buf_size:int -> Unix.file_descr -> t
  (** [buf_size] (default 64 KiB, min 1) is the [Unix.read] size — tests
      use [1] to force every line through the reassembly path. *)

  val read : t -> bool
  (** Append what one [Unix.read] returns; [false] once the stream has
      ended. *)

  val lines : t -> (string, string) result list
  (** Every complete line held, in order, without its terminator; after
      end of stream, also the final unterminated one. A line longer than
      {!Serve_proto.max_line_bytes} comes back as one [Error] message as
      soon as the held part passes the cap; the rest of it is discarded
      up to its newline, and the line after it reads normally. *)
end

type config = {
  jobs : int;  (** Worker domains for job prework (1 = inline). *)
  staleness_weight : float;
      (** New profile mass (merge weight) that invalidates a derived
          plan. *)
  pipeline : Pipeline.config;
      (** Base pipeline configuration; per-workload overrides
          ([halo_grouping]/[halo_allocator]) are applied on top. *)
  cache : Plan_cache.t option;  (** On-disk plan cache, if any. *)
}

val default_staleness_weight : float
(** [4.0] — with unit default weights, four fresh fleet profiles
    invalidate a plan. *)

val default_config : config
(** [jobs = 1], default staleness, {!Pipeline.default_config}, no
    cache. *)

type t

val create : ?obs:Obs.t -> config -> t
(** Build a daemon over [config]; if a cache is configured, previously
    saved aggregates under its [aggregates/] subdirectory are adopted
    (malformed or zero-mass files are skipped, not errors). *)

val save_aggregates : t -> int
(** Persist every non-empty per-program aggregate as a v2 profile
    artifact under [<cache_dir>/aggregates/] (temp file + atomic rename;
    [created] pinned to 0 so equal state saves equal bytes). Returns the
    number saved; 0 when no cache is configured. Best-effort: an
    unwritable directory is skipped. Called automatically when
    {!run_channels} and {!run_socket} finish. *)

val shutdown_requested : t -> bool
(** True once a [shutdown] job has been processed. *)

val stats_json : t -> Json.t
(** The [stats] job's response body: per-kind job counts, plan
    hit/miss/invalidation counters, plan-derivation provenance counts,
    cache counters, aggregate totals and the per-program staleness
    ledger. Deterministic for a given job history. *)

val handle_batch : t -> Serve_proto.job list -> Json.t list
(** Process one batch: prework in parallel over [config.jobs] domains,
    state fold and response emission sequential in submission order.
    Jobs after a [shutdown] in the batch are answered with an error.
    Once {!shutdown_requested} is set, every job is answered with an
    error. *)

val handle_line : t -> string -> Json.t
(** Parse and process a single job line as a one-job batch; parse
    failures become error responses, never exceptions. *)

val run_channels : t -> in_channel -> out_channel -> int
(** The [--stdin-batch] mode: run the serve loop over the input
    channel's descriptor (read directly, so the channel must hold no
    buffered input) until end of stream, writing one response line per
    line read, in order and flushed after each read. Jobs after a
    [shutdown] are answered with an error. Returns the number of
    responses written. Saves cache stats (see {!Plan_cache.save_stats})
    and aggregates before returning. *)

val run_socket : t -> path:string -> int
(** Bind a Unix-domain socket at [path] (unlinking any stale one) and
    run the serve loop for every connection until a [shutdown] job has
    been processed. One [select] covers the listening socket and every
    open connection, each with its own {!Line_reader}, so a client that
    holds a partial line delays no other; at most
    {!Serve_proto.max_connections} are open at once. A client that hangs
    up early loses only its own connection: SIGPIPE is ignored while
    this runs (and restored after), so a failed write closes that
    connection. A client that sends without reading its responses can
    still block the daemon's write. Returns the number of responses
    written; unlinks the socket and saves cache stats and aggregates on
    exit. *)
