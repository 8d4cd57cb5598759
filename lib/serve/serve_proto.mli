(** The serve-mode wire protocol: line-delimited JSON jobs.

    A client (or the fleet simulator, or a CI job file) sends one JSON
    object per line; the daemon answers with one JSON object per line, in
    submission order. Responses never carry timings or other
    machine-dependent values, so a job stream's response stream is
    byte-identical at any worker count — latency lives in telemetry, not
    in the protocol.

    Job forms (the ["job"] discriminator):

    - [{"job":"profile-record","id":1,"workload":"ft","seed":3,
       "weight":1.0,"scale":"test"}] — profile the named workload at the
      given input seed and fold the result into the program's aggregate
      profile. [weight] (default 1) scales the run in the merge;
      [scale] (default ["test"]) is the profiling input scale. In a real
      fleet the profile bytes arrive over the wire; here the daemon
      regenerates them deterministically from (workload, seed, scale) —
      the simulator's stand-in for a client upload.
    - [{"job":"profile-record","id":2,"artifact":"ft.prof.bin",
       "weight":2.0}] — ingest a recorded profile artifact from disk
      (the operator path: artifacts made by [halo_cli profile record]).
    - [{"job":"plan-request","id":3,"workload":"ft"}] — return the
      current plan for the workload's program (cache, aggregate or
      freshly profiled — see {!Serve}).
    - [{"job":"stats","id":4}] — a snapshot of the daemon's counters.
    - [{"job":"shutdown","id":5}] — acknowledge and stop; later jobs in
      the same stream are answered with an error.

    Responses: [{"id":N,"ok":true,"job":"<kind>",...}] on success,
    [{"id":N,"ok":false,"error":"..."}] otherwise ([id] is [null] when
    the line did not parse far enough to recover one). *)

type payload =
  | Profile_record of {
      workload : string;
      seed : int;
      weight : float;
      scale : Workload.scale;
    }
  | Profile_load of { path : string; weight : float }
  | Plan_request of { workload : string }
  | Stats
  | Shutdown

type job = { id : int; payload : payload }

val job_name : payload -> string
(** ["profile-record"], ["plan-request"], ["stats"] or ["shutdown"]. *)

val job_of_json : Json.t -> (job, string) result
val job_of_line : string -> (job, string) result

val parse_line : string -> (job, int option * string) result
(** {!job_of_line}, keeping the id of a line that is a JSON object with
    an integer ["id"] but names no valid job, so its error response can
    carry that id. The line is parsed once. *)

val job_to_json : job -> Json.t
(** Canonical encoding; [job_of_json (job_to_json j) = Ok j]. *)

val ok_response : id:int -> kind:string -> (string * Json.t) list -> Json.t
(** [{"id":id,"ok":true,"job":kind, ...fields}]. *)

val error_response : id:int option -> string -> Json.t
(** [{"id":id-or-null,"ok":false,"error":msg}]. *)

val response_line : Json.t -> string
(** Compact one-line encoding (no trailing newline). *)

val max_line_bytes : int
(** 1 MiB: the longest job line the daemon reads. Every job form above
    fits in well under 1 KiB; a longer line is discarded up to its
    newline and answered with an {!error_response}. *)

val max_connections : int
(** 64: the most client connections a socket daemon holds open at once.
    Further clients wait in the listen backlog until one closes, so the
    daemon's [select] set stays far below [FD_SETSIZE]. *)
