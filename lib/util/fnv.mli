(** FNV-1a 64: the one non-cryptographic byte hash behind the store's
    payload checksum, the traffic digests and {!Rng}'s labelled splits.
    It feeds incrementally, so a writer can hash frames as they stream
    out. *)

val offset : int64
(** The FNV-1a 64 offset basis: the hash of no bytes. *)

val feed : int64 -> string -> int -> int -> int64
(** [feed h s pos len] folds the bytes [s.[pos .. pos + len)] into [h].
    Raises [Invalid_argument] when the range is outside [s]. *)
