(** Deterministic pseudo-random number generation.

    All randomness in the reproduction flows through this module so that
    every experiment is bit-for-bit repeatable. The generator is SplitMix64
    (Steele, Lea & Flood, OOPSLA 2014): a tiny, fast, statistically solid
    64-bit generator that is trivially seedable and splittable. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)

val split : ?label:string -> t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each workload phase its own stream so that adding draws in
    one phase does not perturb another.

    [split ~label t] derives a {e named} substream instead: the child
    depends only on [t]'s current state and [label] — [t] is read but not
    advanced — so derivation order does not matter. Splitting the same
    label twice off the same state yields the same stream; callers wanting
    distinct streams must use distinct labels. Used to give each traffic
    tenant its own stream independent of tenant interleaving order. *)

val next : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in \[0, bound). Raises [Invalid_argument] if
    [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in \[lo, hi\] inclusive. Raises
    [Invalid_argument] if [lo > hi]. Ranges wider than [max_int]
    (e.g. [int_in t min_int max_int]) are handled without overflow by
    rejection sampling. *)

val float : t -> float -> float
(** [float t bound] is uniform in \[0, bound). *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
