(** Little-endian binary primitives for the v2 store codec.

    Encoders append to a caller-owned [Buffer.t]. Decoders read from a
    bounded window over a shared backing string — the whole artifact is
    loaded (or mapped) once and every record decodes in place, without
    copying the payload bytes out first.

    Integers travel as zigzag-encoded LEB128 varints, total over the
    native [int] range; fixed-width [u32]/[i64] are little-endian.
    Every malformed read raises {!Error} with a human-readable reason;
    the store layer converts it into its typed [Malformed] error carrying
    the record ordinal. *)

exception Error of string

(** {1 Encoding} *)

val u8 : Buffer.t -> int -> unit
(** Low 8 bits of the argument. *)

val u32 : Buffer.t -> int -> unit
(** 4-byte little-endian; raises {!Error} outside [0, 2^32). *)

val i64 : Buffer.t -> int64 -> unit
(** 8-byte little-endian. *)

val varint : Buffer.t -> int -> unit
(** Zigzag LEB128: defined for every native [int], 1 byte for small
    magnitudes. *)

val bytes : Buffer.t -> string -> unit
(** Varint byte length followed by the raw bytes. *)

(** {1 Decoding} *)

type dec
(** A cursor over a window of a backing string. *)

val dec : ?pos:int -> ?len:int -> string -> dec
(** [dec ~pos ~len s] reads [s.[pos .. pos+len)]; [len] defaults to the
    rest of the string. Raises {!Error} on an out-of-bounds window. *)

val remaining : dec -> int
val eof : dec -> bool

val read_u8 : dec -> int
val read_i64 : dec -> int64
val read_varint : dec -> int
val read_bytes : dec -> string

val expect_end : dec -> unit
(** Raises {!Error} unless the window is fully consumed — a decoded
    record must account for every one of its bytes. *)
