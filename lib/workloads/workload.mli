(** The evaluation workloads (§5.1).

    Eleven synthetic programs, one per paper benchmark, written in the
    workload IR. Each reproduces the allocation/access {e structure} the
    paper identifies as decisive for its benchmark — wrapper functions,
    deep call chains, a single [operator new] site, direct [malloc] calls
    and so on — rather than the benchmark's computation. Programs come in
    two scales: [Test] (small, for profiling) and [Ref] (larger, for
    measurement), built from identical IR structure so call sites coincide
    — the reproduction's analog of profiling on SPEC [test] inputs and
    measuring on [ref] inputs. [Train] sits between the two; §5.1 uses the
    train inputs for benchmark selection (more than one heap allocation
    per million instructions).

    Each workload also carries its artefact-appendix configuration quirks
    (chunk size, spare-chunk policy, group cap). *)

type scale = Test | Train | Ref

type t = {
  name : string;
  description : string;
  make : scale -> Ir.program;
  halo_allocator : Group_alloc.config -> Group_alloc.config;
      (** Per-benchmark allocator flag overrides (A.8): e.g. omnetpp's
          128 KiB chunks and always-reuse policy. *)
  halo_grouping : Grouping.params -> Grouping.params;
      (** Per-benchmark grouping overrides: e.g. roms's [--max-groups 4]. *)
  in_frag_table : bool;  (** Appears in Table 1 (9 of the 11 do). *)
}

val plain :
  name:string ->
  description:string ->
  make:(scale -> Ir.program) ->
  ?halo_allocator:(Group_alloc.config -> Group_alloc.config) ->
  ?halo_grouping:(Grouping.params -> Grouping.params) ->
  ?in_frag_table:bool ->
  unit ->
  t
(** Constructor with identity defaults. *)

val pipeline_config : t -> Pipeline.config -> Pipeline.config
(** [pipeline_config w base] is [base] with [w]'s [halo_grouping] and
    [halo_allocator] overrides applied: the configuration HALO plans [w]
    under. *)
