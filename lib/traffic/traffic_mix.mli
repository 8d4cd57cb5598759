(** The mix executor: run a {!Schedule}'s job stream against one shared
    heap, with HALO plans applied per workload under a plan budget.

    All jobs share a single {!Vmem} address space, one jemalloc-model
    fallback allocator, and one cache {!Hierarchy} — the multi-tenant
    setting the paper's per-binary evaluation never exercises. Each
    workload under plan additionally gets its own specialised
    {!Group_alloc} carved from the same address space (chunks interleave
    with every other tenant's), instantiated from a {!Pipeline} plan
    profiled at test scale.

    Staleness model: only the [plan_budget] hottest workloads of the
    recent window hold live plans (plans are memory/deploy budget, so
    eviction is real); jobs for uncovered workloads run on the fallback
    allocator. Re-planning every [reprofile_every] ticks re-selects the
    hot set — as the schedule drifts, a long cadence leaves the covered
    set pointing at yesterday's traffic, and the lost coverage shows up
    directly in the L1 miss rate. Re-profiling cost is charged at one
    cycle per profiled access (a deliberate lower bound) into
    [net_cycles].

    The executor is strictly sequential — tenants share a heap, so there
    is no safe fan-out inside one run — which makes every report field a
    pure function of [(seed, schedule, config)]; [--jobs] parallelism
    lives one level up, across runs (see {!Traffic_study}). *)

type config = {
  plan_budget : int;  (** Hottest-K workloads holding live plans. *)
  reprofile_every : int;
      (** Ticks between re-plans; [0] plans once at tick 0 and lets the
          plan age forever — the stale baseline. *)
  window : int;
      (** Ticks of traffic history (including the tick being planned)
          that vote on the hot set. *)
  scale : Workload.scale;  (** Job program scale. *)
  pipeline : Pipeline.config;
}

val default_config : config
(** [plan_budget = 3], [reprofile_every = 0], [window = 4],
    [scale = Test], {!Pipeline.default_config}. *)

type tenant_stats = {
  ts_tenant : string;
  ts_workload : string;
  ts_jobs : int;
  ts_covered_jobs : int;
  ts_instructions : int;
  ts_accesses : int;
  ts_l1_misses : int;
}

type phase_stats = {
  ph_phase : int;
  ph_label : string;
  ph_jobs : int;
  ph_covered_jobs : int;
  ph_accesses : int;
  ph_l1_misses : int;
  ph_mean_plan_age : float;
      (** Mean ticks since plan creation over covered jobs; 0 when none. *)
}

type report = {
  schedule_digest : string;  (** {!Schedule.digest} of the event stream. *)
  exec_digest : string;
      (** FNV-1a 64 over per-job execution observables (instructions and
          miss deltas) — pins the whole shared-heap execution, not just
          the schedule. *)
  jobs : int;
  instructions : int;
  counters : Hierarchy.counters;  (** Aggregate over all jobs. *)
  cycles : float;
  sim_seconds : float;
  miss_rate : float;  (** [l1_misses / accesses]; 0 when no accesses. *)
  covered_jobs : int;
  coverage : float;  (** [covered_jobs / jobs]; 0 when no jobs. *)
  replans : int;  (** Hot-set re-selections (including tick 0). *)
  profile_runs : int;  (** Test-scale profiler invocations performed. *)
  profile_accesses : int;  (** Total accesses observed by those runs. *)
  net_cycles : float;  (** [cycles + profile_accesses] (1 cycle/access). *)
  tenants : tenant_stats list;  (** Sorted by tenant name. *)
  phases : phase_stats list;  (** In schedule order. *)
}

val run : ?obs:Obs.t -> ?config:config -> seed:int -> Schedule.t -> report
(** Telemetry (with [obs]): a [traffic.run] span over the whole
    execution, [traffic.jobs] / [traffic.jobs.covered] /
    [traffic.replans] / [traffic.profile.runs] counters, a
    [traffic.coverage] gauge, per-job [traffic.plan.age] histogram
    samples, and one [traffic.phase] series event per phase boundary
    carrying the label and tenant shares. *)

val report_table : report -> Table.t
(** Totals plus one row per phase. *)

val tenant_table : report -> Table.t

val report_to_json : report -> Json.t
