(** Traffic schedules: shaped, drifting, multi-tenant composition of the
    workload registry.

    A schedule is a sequence of {e phases}. Each phase runs for a number
    of abstract {e ticks} and carries a job-arrival {e rate curve}, an
    optional periodic {e burst}, and a set of {e tenants} — named slices
    of traffic, each bound to a registry workload with a time-varying
    {e share curve}. {!events} lowers a schedule to a flat, deterministic
    job-event stream; everything downstream (the mix executor, the drift
    study, the serve fleet simulator) consumes that one representation,
    so all traffic in the system flows through the same model.

    Determinism: rates and shares are lowered to integer job counts by
    error-diffusion carries and largest-remainder apportionment — no
    coin flips — and each tenant draws its per-job seeds from an
    {!Rng.split}[ ~label]-derived substream keyed by tenant name, so a
    tenant's own event subsequence is independent of how tenants are
    ordered or interleaved. The full stream is a pure function of
    [(seed, schedule)]; any [--jobs] fan-out above it inherits
    byte-identical results from {!Par}'s ordering guarantee. *)

type curve =
  | Const of float
  | Linear of { from_ : float; to_ : float }
      (** Linear ramp across the phase: [from_] at the first tick, [to_]
          at the last. *)
  | Exp of { from_ : float; to_ : float }
      (** Geometric ramp; both endpoints must be positive. *)

val eval : curve -> pos:float -> float
(** [eval c ~pos] with [pos] in \[0,1\] (clamped). *)

type burst = { period : int; width : int; gain : float }
(** Every [period] ticks, the first [width] ticks of the cycle multiply
    the phase rate by [gain]. *)

type tenant = {
  t_name : string;  (** Stable identity; keys the tenant's RNG substream. *)
  t_workload : string;  (** Registry workload name. *)
  t_share : curve;  (** Relative weight; normalised per tick. *)
}

type phase = {
  p_label : string;
  p_ticks : int;
  p_rate : curve;  (** Jobs per tick (fractional rates accumulate). *)
  p_burst : burst option;
  p_tenants : tenant list;
}

type t = phase list

(** {1 Combinators} *)

val tenant : ?name:string -> ?share:curve -> string -> tenant
(** [tenant workload] — [name] defaults to the workload name, [share] to
    [Const 1.0]. *)

val phase :
  ?burst:burst -> label:string -> ticks:int -> rate:curve -> tenant list -> phase

val pause : label:string -> ticks:int -> phase
(** Zero-rate, zero-tenant phase: ticks elapse, no jobs arrive. *)

val repeat : int -> t -> t
(** [repeat n s] concatenates [n] copies of [s]. *)

val total_ticks : t -> int

val drifting :
  ?workloads:string list ->
  ?ticks_per_phase:int ->
  ?rate:float ->
  phases:int ->
  drift:float ->
  unit ->
  t
(** The shared fleet/study traffic shape: one phase per epoch over
    [workloads] (default: the full registry), tenant shares following the
    quadratic-skew popularity of a ranking ([P(rank < k) = sqrt(k/n)],
    the fleet simulator's cheap Zipf stand-in). [drift] is the expected
    number of head-of-ranking rotations per phase, applied by
    error-diffusion carry — [drift = 0.25] rotates exactly once every
    four phases — so the whole shape is seed-independent and the RNG
    only ever influences per-job seeds. [ticks_per_phase] defaults to 1,
    [rate] (jobs per tick) to 100. *)

(** {1 Events} *)

type event = {
  ev_tick : int;  (** Global tick, counted across phases from 0. *)
  ev_phase : int;  (** Phase index in the schedule. *)
  ev_label : string;  (** Phase label. *)
  ev_tenant : string;
  ev_workload : string;
  ev_seed : int;  (** Per-job interpreter/profiling seed, in \[1, 1e6\]. *)
}

val validate : t -> (unit, string) result
(** Checks phase ticks are positive, burst fields sane, curve values
    finite and at most 2^53 (a burst's peak rate included), [Exp]
    endpoints positive, tenant names unique within a phase, and every
    tenant's workload resolvable via {!Workloads.lookup}. *)

val events : seed:int -> t -> event list
(** Lower the schedule to its deterministic event stream. Within a tick,
    events are grouped by tenant in phase-declaration order; each
    tenant's own subsequence (count and seeds) is invariant under tenant
    reordering. Raises [Invalid_argument] if {!validate} fails. *)

val digest : event list -> string
(** FNV-1a 64 over the rendered stream, as 16 hex digits — the identity
    pinned by the golden test and the CI smoke. *)

(** {1 Mix-spec text format}

    One directive per line; [#] comments and blank lines are skipped:
    {v
    phase warm  ticks=20 rate=ramp:2:10 tenants=health:0.7,ft:0.3
    phase spike ticks=10 rate=10 burst=5:2:3 tenants=health@hot:ramp:0.7:0.2,ft
    pause cool  ticks=4
    v}
    Curves are [N], [ramp:A:B] or [exp:A:B]; tenants are
    [workload\[@name\]\[:curve\]]; bursts are [period:width:gain]. *)

val of_spec : string -> (t, string) result
(** Parse and {!validate} each phase as it is read; every error carries
    the offending line number. *)

val to_spec : t -> string
(** Render back to the text format ([of_spec (to_spec s)] re-reads to an
    equivalent schedule). *)
