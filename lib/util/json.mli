(** Minimal JSON emission and parsing (no external dependencies).

    The paper's artefact generates "JSON files ... containing the specific
    data points for each run" (A.6); {!Runner.to_json}-style serialisation
    and the CLI's [--json] flag use this module. {!of_string} reads back
    serve job lines, traces ([Telemetry]), the JSON header and metadata
    of store artifacts, and the fuzz digest corpus. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Serialise; [pretty] (default true) indents with two spaces. Strings
    are escaped per RFC 8259; non-finite floats become [null]. *)

val to_channel : ?pretty:bool -> out_channel -> t -> unit

val of_string : string -> (t, string) result
(** Parse one JSON value (RFC 8259). Numbers without a fraction or
    exponent that fit an OCaml [int] become [Int]; all others become
    [Float] — so [to_string]/[of_string] round-trips every finite value
    this module emits ([%.17g] floats included, bit for bit). Errors
    carry a character offset and a reason; trailing garbage after the
    value is an error. Escapes, including [\uXXXX] (with surrogate
    pairs), decode to UTF-8. *)

(** {1 Field accessors}

    Strict decode helpers for store artifacts: each returns [Error] with
    the offending field name rather than raising, so malformed artifact
    lines surface as typed decode errors, not exceptions. *)

val mem : string -> t -> t option
(** [mem name (Obj fields)] — [None] for absent fields or non-objects. *)

val get_int : string -> t -> (int, string) result
val get_float : string -> t -> (float, string) result
(** Accepts [Int] too (JSON has one number type). *)

val get_string : string -> t -> (string, string) result
val get_bool : string -> t -> (bool, string) result
val get_list : string -> t -> (t list, string) result
val get_obj : string -> t -> ((string * t) list, string) result
