(** Replayable decision streams for the program generator.

    The fuzzer's generator never draws from an {!Rng} directly; it draws
    from a {e decision source}, which either forwards to an [Rng] while
    recording every choice (normal generation) or replays a previously
    recorded — possibly mutated — trace (replay and shrinking). The
    recorded trace is the case's genotype: a single [int array] from which
    the whole program is rebuilt bit-for-bit, and which the shrinker
    delta-debugs without knowing anything about the grammar.

    Replay is total: out-of-range values are clamped with a modulo and an
    exhausted trace yields 0, so {e every} int array maps to a valid
    program. Because the generator orders each choice list simplest-first,
    clamping toward 0 — which is what trace mutations do — steers
    generation toward smaller programs, the property greedy shrinking
    relies on (Hypothesis-style internal reduction). *)

type t

val recording : Rng.t -> t
(** Draws come from the generator; every decision is appended to the
    trace. *)

val replaying : int array -> t
(** Draws come from the array, clamped into range ([v mod bound]); once
    the array is exhausted every draw is 0. The {e effective} (clamped)
    decisions are re-recorded, so {!trace} afterwards returns a normalized
    trace no longer than the input. *)

val draw : t -> int -> int
(** [draw t bound] is a decision in \[0, bound). Raises [Invalid_argument]
    if [bound <= 0]. *)

val draw_in : t -> int -> int -> int
(** [draw_in t lo hi], inclusive — [lo + draw t (hi - lo + 1)]. *)

val weighted : t -> int array -> int
(** [weighted t [| w0; ...; wn |]] picks index [i] with probability
    proportional to [wi], consuming one decision. Index 0 should be the
    "simplest" alternative: replayed zeros select it. Raises
    [Invalid_argument] on an empty or non-positive-total weight array. *)

val trace : t -> int array
(** The decisions consumed so far, in draw order. *)
