(** Campaign driver: sweep seeds, oracle each case, shrink failures.

    This is the engine behind [halo_cli fuzz]. A campaign walks seeds
    [seed_base .. seed_base + seeds - 1] (optionally stopping early on a
    time budget), builds each case with {!Fuzz_gen.generate}, runs
    the full {!Fuzz_oracle} battery, and on any failure delta-debugs the
    case with {!Fuzz_shrink} before reporting it. Failing cases can be
    persisted to a corpus directory as JSON (via {!Json}) — a corpus
    entry carries the seed and normalized trace, which is everything
    needed to rebuild the case bit for bit, plus the pretty-printed
    minimal program for human eyes.

    Instrumented through {!Obs} when a context is supplied:
    [fuzz.cases], [fuzz.oracle.violations] and [fuzz.shrink.steps]
    counters, plus a [fuzz.case] span per seed. Under [jobs > 1] the
    per-case instrumentation lands on worker-private contexts that are
    merged into the supplied one after the join ({!Metrics.merge}),
    alongside [fuzz.tasks]/[fuzz.workers] accounting and one
    [fuzz.worker] event per worker. *)

type config = {
  seeds : int;  (** Number of seeds to sweep. *)
  seed_base : int;  (** First seed (campaign seeds are consecutive). *)
  ref_scale : int;  (** Loop-scale multiplier for measurement programs. *)
  time_budget : float option;
      (** Stop starting new cases [s] seconds after the campaign starts
          (on {!Obs_clock}); the first seed always runs. *)
  corpus_dir : string option;  (** Save failing cases here as JSON. *)
  shrink_steps : int;  (** Shrink budget per failing case. *)
  extra : (string * (Vmem.t -> Alloc_iface.t)) list;
      (** Extra allocator configurations for the oracle battery —
          the fault-injection hook. *)
  plan_source : Pipeline.plan_source option;
      (** Plan supplier for the oracle's HALO configuration (the
          persistent store's plan cache). Shrinking always re-plans
          in-process: shrunk programs are throwaway variants that would
          only pollute a cache. *)
  jobs : int;
      (** Worker domains for the sweep (see {!Par}). Each case is
          self-contained — its own decision stream, RNG, heaps and
          interpreters — so the campaign partitions freely: verdicts,
          reports and log/corpus output are byte-identical at any
          [jobs]; failures funnel through a single corpus writer on the
          calling domain after the join. [1] (the default) never spawns
          a domain. *)
  obs : Obs.t option;
  log : (string -> unit) option;  (** Per-failure progress lines. *)
}

val default : config
(** 200 seeds from base 1, ref-scale 3, 1 job, no
    budget/corpus/extra/obs, shrink budget 2000. *)

type case_report = {
  seed : int;
  failures : Fuzz_oracle.failure list;  (** From the {e original} case. *)
  original_stmts : int;  (** [ref_] statement count before shrinking. *)
  shrunk_stmts : int;  (** ... and after. *)
  shrunk_trace : int array;  (** Genotype of the minimal case. *)
  shrink_steps_used : int;
  shrunk_program : string;  (** Pretty-printed minimal [ref_] program. *)
  saved_to : string option;  (** Corpus path, when persisted. *)
}

type summary = {
  cases : int;  (** Cases actually executed. *)
  violations : int;  (** Individual oracle failures, summed. *)
  failing_seeds : int list;
  reports : case_report list;  (** One per failing seed, in seed order. *)
  allocs : int;  (** Allocation events checked, campaign total. *)
  accesses : int;  (** Accesses digested, campaign total. *)
  elapsed_s : float;
}

val run : config -> summary

val replay :
  ?ref_scale:int ->
  ?extra:(string * (Vmem.t -> Alloc_iface.t)) list ->
  int ->
  Fuzz_gen.case * Fuzz_oracle.result
(** [replay seed] rebuilds one case and runs the oracle once —
    bit-for-bit identical to the campaign's run of that seed. *)

val report_json : case_report -> Json.t
(** The corpus-file shape; stable keys, replayable from [seed]/[trace]. *)

(** {2 Semantic digest corpus}

    A fixed seed set's oracle observables — reference-run digest, return
    value, plan shape (groups/monitored/contexts) and per-config
    allocator stats totals — recorded to JSON. Re-running the sweep
    against a recorded corpus pins the interpreter/profiler semantics:
    any optimisation that changes an observable shows up as a named
    field mismatch on a named seed. *)

type digest_record = {
  d_seed : int;
  d_failures : int;  (** Oracle failure count (0 for a healthy pipeline). *)
  d_ret : (int, string) Stdlib.result;  (** Reference run's return value. *)
  d_dig : Fuzz_observe.digest;  (** Reference run's observable digest. *)
  d_stats : Fuzz_oracle.stats;
}

val digest_sweep :
  ?ref_scale:int -> ?seed_base:int -> seeds:int -> unit -> digest_record list
(** Run the full oracle battery over consecutive seeds and collect one
    record per case. Deterministic: equal arguments, equal records. *)

val digests_json : ref_scale:int -> digest_record list -> Json.t
val digests_of_json : Json.t -> (int * digest_record list, string) Stdlib.result
(** Returns [(ref_scale, records)]. *)

val save_digests : path:string -> ref_scale:int -> digest_record list -> unit
val load_digests : path:string -> (int * digest_record list, string) Stdlib.result

val check_digests :
  expected:digest_record list -> digest_record list -> string list
(** [check_digests ~expected got] compares record lists seed by seed and
    returns human-readable mismatch lines ([[]] = semantics identical). *)
