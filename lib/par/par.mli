(** Domain-parallel execution: a small fixed pool of worker domains.

    Every fan-out site in the stack — the experiment suite's
    workload×configuration×seed cells, fuzz-campaign seeds, benchmark
    trials — is embarrassingly parallel: each task builds its own
    {!Vmem}, allocator and interpreter, so tasks share no mutable state.
    This module supplies the one safe bridge between those tasks and the
    shared world:

    - a work queue guarded by [Mutex]/[Condition], drained by a fixed
      number of worker domains;
    - futures with {e deterministic result ordering}: {!map} returns
      results in submission order regardless of completion order, so a
      parallel run is bit-for-bit the sequential run;
    - exception capture in the worker and re-raise (with the original
      backtrace) at {!await};
    - domain-safe observability: the mutable {!Metrics} records are not
      safe for concurrent mutation, so each worker owns a private
      {!Obs.child} of the parent on its own track ([w_id + 1]; the inline
      worker of a [jobs = 1] pool keeps the parent's), which keeps its
      series events when the parent traces;
      every task's queue wait and wall time land in the worker's
      [<name>.queue_wait_s] / [<name>.task_s] histograms. After the join
      the per-worker registries are folded into the parent with
      {!Metrics.merge}, worker span trees are grafted on with
      {!Obs.adopt} (so the Chrome-trace export shows one lane per
      domain, with the workers' series events), and one [par.worker] event per worker (tasks completed,
      busy seconds) is emitted, alongside the [par.tasks] counter and
      [par.workers] gauge.

    [jobs <= 1] never spawns a domain: tasks run inline, in submission
    order, on the calling domain — the sequential code path stays the
    sequential code path. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the cap applied when a caller
    does not pin a worker count. *)

(** {1 Core budget}

    One process-wide count of the cores held by helper domains: every
    live pool of [jobs > 1] holds [jobs] from {!create} to {!shutdown},
    and a {!Helper_stream} (the cache simulator's or the profiler's)
    holds one while its helper runs. The calling domain always holds one of its own.
    Pools are never refused; the budget only tells an optional helper
    whether a core is free for it. *)

val spare_cores : unit -> int
(** [default_jobs () - 1 - reserved]: the cores no domain holds. Zero or
    negative when pools (or helpers) cover the machine. *)

val claim_spare : unit -> int option
(** Reserve one core if {!spare_cores} is at least 1. [Some lane] is the
    claim's position among the held cores (1-based), which a helper uses
    as its trace track; [None] leaves the budget unchanged. *)

val reserve : int -> int
(** [reserve n] holds [n] more cores whether or not they are spare and
    returns the first one's lane. *)

val release : int -> unit
(** [release n] returns [n] cores taken by {!claim_spare} or {!reserve}. *)

(** {1 Pools and futures} *)

type pool

val create : ?obs:Obs.t -> ?name:string -> jobs:int -> unit -> pool
(** [create ~jobs ()] spawns [max 1 jobs] worker domains immediately and,
    for [jobs > 1], holds that many cores of the budget until
    {!shutdown}.
    [name] (default ["par"]) prefixes the observability events emitted at
    {!shutdown}. [obs] is the {e parent} context: workers never touch it;
    it receives the merged registries after {!shutdown}. *)

val jobs : pool -> int

type 'a future

val submit : pool -> (Obs.t option -> 'a) -> 'a future
(** Enqueue a task. The function receives the executing worker's private
    observability context ([None] when the pool has no parent [obs]) and
    must not retain it past its own run. Tasks are started in submission
    order. Raises [Invalid_argument] if the pool is already shut down. *)

val await : 'a future -> 'a
(** Block until the task completes. Re-raises the task's exception with
    its original backtrace if it failed. *)

val shutdown : pool -> unit
(** Drain the queue, join every worker, return the pool's cores to the
    budget, then fold each worker's metric
    registry into the parent [obs] (when given) with {!Metrics.merge},
    adopt each worker's spans with {!Obs.adopt}, and emit the per-worker
    accounting events. Idempotent. *)

(** {1 Combinators} *)

val map :
  ?obs:Obs.t -> ?name:string -> ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element on a transient pool of
    [jobs] workers (default {!default_jobs}, capped at the element
    count) and returns the results {e in input order}. If any application
    raised, the first such exception (in input order) is re-raised after
    the pool is joined. *)

val map_obs :
  ?obs:Obs.t ->
  ?name:string ->
  ?jobs:int ->
  (Obs.t option -> 'a -> 'b) ->
  'a list ->
  'b list
(** As {!map}, but [f] also receives the worker-private observability
    context, so per-task spans and counters can be recorded concurrently
    and merged into [obs] after the join. *)
