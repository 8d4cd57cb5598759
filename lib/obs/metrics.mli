(** The metric registry: counters, gauges and log-bucketed histograms.

    Instrumented modules resolve handles once at construction time
    ({!counter}/{!gauge}/{!histogram} are idempotent per name) and update
    them through the handle on the hot path — no per-event name lookup.
    Registration is keyed by name; re-registering a name with a different
    kind raises [Invalid_argument].

    Metric names are dot-separated, lowest-level component first, e.g.
    [alloc.chunks.carved] or [profile.affinity_queue.depth] — the span
    taxonomy table in DESIGN.md lists every name the stack emits. *)

type counter
type gauge
type histogram
type registry

val create : unit -> registry

val counter : registry -> string -> counter
val incr : ?by:int -> counter -> unit
val counter_value : counter -> int
val counter_name : counter -> string

val gauge : registry -> string -> gauge

val set : gauge -> float -> unit
(** Record the gauge's current level; the running max and sample count are
    kept alongside the last value. *)

val gauge_value : gauge -> float

(** {1 Quantile sketch histograms}

    DDSketch-style log-bucketed histograms: a positive observation [v]
    lands in the sparse bucket [ceil (log_gamma v)] where
    [gamma = (1+alpha)/(1-alpha)], so any quantile extracted from the
    sketch is within relative error [alpha] of an exactly-ranked value
    from the recorded stream. Buckets are integer counts, so {!merge} is
    per-bucket addition — exactly associative and commutative, which is
    what lets per-domain worker registries (and future fleet shards)
    aggregate without precision loss. Non-positive observations are
    tallied in a dedicated zero bucket (queue depths and occupancies
    observe [0.0] routinely). *)

val default_alpha : float
(** [0.01] — quantiles accurate to ±1%, ~900 buckets per decade-spanning
    distribution worst case, far fewer in practice. *)

val histogram : ?alpha:float -> registry -> string -> histogram
(** [alpha] is the relative-error bound, in [(0, 1)]; default
    {!default_alpha}. Re-resolving an existing name ignores [alpha] and
    returns the original handle. *)

val observe : histogram -> float -> unit

val quantile : histogram -> float -> float option
(** [quantile h q] for [q] in [[0, 1]]: the representative value of the
    bucket holding rank [q * (count - 1)], clamped into the recorded
    [min..max] envelope. [None] when the histogram is empty. The result is
    within [alpha] relative error of the true [q]-quantile of the
    observed stream. *)

val histogram_count : histogram -> int
val histogram_sum : histogram -> float
val histogram_alpha : histogram -> float

val histogram_min : histogram -> float
(** [infinity] while empty. *)

val histogram_max : histogram -> float
(** [neg_infinity] while empty. *)

val histogram_buckets : histogram -> (float * int) list
(** [(upper_bound, count)] per occupied bucket in bound order, the zero
    bucket (bound [0.0]) first when occupied. Counts are per-bucket, not
    cumulative. *)

type value =
  | Counter of int
  | Gauge of { last : float; max : float; samples : int }
  | Histogram of {
      count : int;
      sum : float;
      min : float;
      max : float;
      alpha : float;
      zero : int;
      buckets : (float * int) list;
          (** Occupied positive buckets [(upper_bound, count)], ascending;
              the zero bucket is carried separately in [zero]. *)
    }

val value_quantile : value -> float -> float option
(** Quantile extraction from a snapshot/decoded {!value} — same contract
    as {!quantile}; [None] for counters, gauges and empty histograms. *)

val merge : into:registry -> registry -> unit
(** [merge ~into src] folds every metric of [src] into [into], creating
    missing metrics as it goes: counters add; gauges take the max of
    maxes and sum sample counts (the merged [last] is the source's last
    when the source recorded any sample — merge sources in a fixed order
    for a deterministic result); histograms add per-bucket counts, zero
    counts, sums and counts, and combine min/max. Histogram merging is
    associative and commutative up to float-sum rounding in [sum] (exact
    when observations are integer-valued below 2{^53}). The registries'
    mutable records are not safe for concurrent mutation, so this is the
    join-side half of domain-parallel observability: give each worker a
    private registry and merge after the join (see {!Par}). Raises
    [Invalid_argument] when a name is registered with different kinds in
    the two registries, or when histogram [alpha]s differ. *)

val snapshot : registry -> (string * value) list
(** Every registered metric with its current value, sorted by name. *)

val value_to_json : value -> Json.t
(** Histograms serialise OpenMetrics-style: occupied buckets as
    [{"le": bound, "count": n}] with a trailing [{"le": "+Inf",
    "count": 0}] overflow marker, plus [count]/[sum]/[alpha] and, when
    non-empty, [min]/[max]/[p50]/[p90]/[p99]/[p999]. *)

val value_of_json : Json.t -> (value, string) result
(** Decode a {!value_to_json} object back; round-trips bucket counts
    exactly (quantiles re-derive identically from the decoded value). *)

val to_json : registry -> Json.t
(** One object field per metric, sorted by name. *)
