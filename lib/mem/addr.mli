(** Simulated virtual addresses and alignment arithmetic.

    Addresses in the reproduction are plain OCaml [int]s interpreted as
    byte offsets in a simulated 64-bit address space (63 usable bits is far
    more than any workload maps). Keeping them as [int]s makes them directly
    usable as cache-simulator inputs and hash keys. *)

type t = int
(** A simulated virtual address (non-negative). *)

val null : t
(** The null address (0). Never returned by a successful allocation. *)

val align_up : t -> int -> t
(** [align_up a n] rounds [a] up to the next multiple of [n]. [n] must be a
    positive power of two. *)

val align_down : t -> int -> t
(** [align_down a n] rounds [a] down to a multiple of [n]. *)

val is_aligned : t -> int -> bool
(** [is_aligned a n] is true iff [a] is a multiple of [n]. *)

val is_power_of_two : int -> bool

val log2 : int -> int
(** [log2 n] is the shift [k] with [1 lsl k = n]. [n] must be a positive
    power of two. *)

val to_hex : t -> string
