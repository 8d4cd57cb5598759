(** Small descriptive-statistics helpers used by the measurement harness.

    The paper reports medians of 10 recorded trials with 25th/75th-percentile
    error bars (§5.1 Measurement); these helpers implement exactly those
    summaries. *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val median : float array -> float
(** Median (average of the two middle elements for even lengths). The input
    is not modified. Raises [Invalid_argument] on an empty array. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in \[0,100\], using linear interpolation
    between closest ranks. The input is not modified. Raises
    [Invalid_argument] on an empty array, on [p] outside the range, and
    on any NaN element — a NaN-contaminated quantile is garbage, so it is
    rejected rather than returned. *)

val stddev : float array -> float
(** Sample standard deviation (n-1 denominator); 0 for singleton input. *)

val geomean : float array -> float
(** Geometric mean of strictly positive values. *)

type summary = {
  median : float;
  p25 : float;
  p75 : float;
  mean : float;
  min : float;
  max : float;
}
(** The summary shape reported for every measured characteristic. *)

val summarize : float array -> summary
(** Five-number-ish summary used when printing experiment rows. Raises
    [Invalid_argument] on empty or NaN-containing input. *)
