(** The hot-data-streams co-allocation comparator, end to end (§5.1).

    Replicates the comparison technique evaluated in the paper: profile a
    data-reference trace, compress it with SEQUITUR, extract minimal hot
    data streams (2–20 elements, 90% coverage), convert each stream into a
    co-allocation set of {e immediate allocation call sites}, select a
    compatible collection of sets by greedy weighted set packing, and
    enforce the resulting pools at runtime with the same specialised
    allocator HALO uses — but identified only by the allocation's immediate
    call site, which is precisely the limitation §5.2 shows defeats it on
    povray (wrappers), leela (single [new] site) and xalanc (deep
    indirection). *)

type config = { streams : Hot_streams.config }
(** The profiling run is {!Profiler}'s: its front end at
    {!Profiler.default_config}'s seed and 4 KiB tracking bound, with
    SEQUITUR reading the first 1,000,000 macro accesses. *)

val default_config : config

type plan = {
  groups : int list array;
      (** Selected co-allocation sets: group index -> allocation sites. *)
  stream_count : int;  (** Candidate streams (the roms blow-up metric). *)
  selected_streams : int;
  trace_length : int;
  grammar_rules : int;
  coverage : float;  (** Fraction of the trace the hot streams covered. *)
  candidates : Set_packing.candidate list;
      (** The hot streams' co-allocation sets, hottest first: what
          [groups] was packed from, kept so {!repack} needs no second
          profiling run. *)
}

val plan : ?config:config -> ?merge_identical:bool -> Ir.program -> plan
(** Profile the (test-scale) program and derive co-allocation sets. The
    program runs under {!Profiler.hooks}, so its trace is the macro-access
    stream HALO's profiler sees: [trace_length] is {!Profiler.profile}'s
    [total_accesses] under the default config, up to the 1,000,000 cap.
    [merge_identical] (default false) is forwarded to {!Set_packing.pack}
    — the ablation knob.

    Stream bounds that {!Hot_streams.check_config} rejects raise
    [Invalid_argument] before anything is interpreted. *)

val repack : merge_identical:bool -> plan -> plan
(** [plan] with its [groups] packed again from its [candidates]: equal to
    {!plan} of the same program with this [merge_identical], without
    interpreting the program or building the grammar again. *)

val classifier : plan -> env:Exec_env.t -> size:int -> int option
(** Runtime identification: the group whose site set contains the
    allocation's immediate call site ([env.cur_alloc_site]), if any.
    Partially applied ([classifier plan ~env]) it is the [classify]
    argument for {!Group_alloc.create}. *)
