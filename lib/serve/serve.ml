(* Reading job lines straight off a file descriptor, one [Unix.read] at
   a time, so the serve loop never blocks on a partial line: [read]
   appends what one read returns ([EINTR] is retried, a short read is
   normal) and [lines] hands out every complete line held.

   Received bytes live in [buf.[start .. stop)]; a read appends after
   [stop], first sliding the unread bytes to the front or doubling the
   buffer when there is no room, so each byte is copied O(1) times
   amortised. The newline search resumes at [scan], so a long line is
   scanned once, not once per read. A line longer than
   [Serve_proto.max_line_bytes] is reported as soon as the held part
   passes the cap, and the rest of it is dropped as it arrives, up to its
   newline ([skipping]), which bounds the buffer. *)
module Line_reader = struct
  type t = {
    fd : Unix.file_descr;
    chunk : int;
    mutable buf : Bytes.t;
    mutable start : int;  (** First byte not yet consumed. *)
    mutable stop : int;  (** End of the bytes received. *)
    mutable scan : int;  (** [buf.[start .. scan)] holds no newline. *)
    mutable eof : bool;
    mutable skipping : bool;  (** Inside an over-long line already reported. *)
  }

  let create ?(buf_size = 65536) fd =
    let chunk = max 1 buf_size in
    {
      fd;
      chunk;
      buf = Bytes.create chunk;
      start = 0;
      stop = 0;
      scan = 0;
      eof = false;
      skipping = false;
    }

  let read t =
    if not t.eof then begin
      if t.stop + t.chunk > Bytes.length t.buf then begin
        let live = t.stop - t.start in
        let buf =
          if 2 * (live + t.chunk) <= Bytes.length t.buf then t.buf
          else Bytes.create (2 * (live + t.chunk))
        in
        Bytes.blit t.buf t.start buf 0 live;
        t.buf <- buf;
        t.scan <- t.scan - t.start;
        t.start <- 0;
        t.stop <- live
      end;
      let rec go () =
        match Unix.read t.fd t.buf t.stop t.chunk with
        | 0 -> t.eof <- true
        | n -> t.stop <- t.stop + n
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      in
      go ()
    end;
    not t.eof

  let rec find_newline t =
    if t.scan >= t.stop then None
    else if Bytes.get t.buf t.scan = '\n' then Some t.scan
    else begin
      t.scan <- t.scan + 1;
      find_newline t
    end

  let consume t next =
    t.start <- next;
    t.scan <- next

  let too_long =
    Error
      (Printf.sprintf "job line longer than %d bytes"
         Serve_proto.max_line_bytes)

  let lines t =
    let rec go acc =
      match find_newline t with
      | Some nl ->
          let acc =
            if t.skipping then acc
            else if nl - t.start > Serve_proto.max_line_bytes then
              too_long :: acc
            else
              (* CRLF tolerance, matching the store's line discipline. *)
              let stop =
                if nl > t.start && Bytes.get t.buf (nl - 1) = '\r' then nl - 1
                else nl
              in
              Ok (Bytes.sub_string t.buf t.start (stop - t.start)) :: acc
          in
          consume t (nl + 1);
          t.skipping <- false;
          go acc
      | None ->
          let held = t.stop - t.start in
          if t.skipping then begin
            consume t t.stop;
            List.rev acc
          end
          else if held > Serve_proto.max_line_bytes then begin
            consume t t.stop;
            t.skipping <- not t.eof;
            List.rev (too_long :: acc)
          end
          else if t.eof && held > 0 then begin
            (* Final line with no trailing newline: still a line. *)
            let line = Bytes.sub_string t.buf t.start held in
            consume t t.stop;
            List.rev (Ok line :: acc)
          end
          else List.rev acc
    in
    go []
end

type config = {
  jobs : int;
  staleness_weight : float;
  pipeline : Pipeline.config;
  cache : Plan_cache.t option;
}

let default_staleness_weight = 4.0

let default_config =
  {
    jobs = 1;
    staleness_weight = default_staleness_weight;
    pipeline = Pipeline.default_config;
    cache = None;
  }

(* Per-workload resolution, memoised: the test-scale program names the
   cache key (Ir_digest masks scale, so train/ref profiles of the same
   workload share it), and the per-workload grouping/allocator overrides
   are folded into the base pipeline config once. *)
type resolution = {
  r_workload : Workload.t;
  r_program : Ir.program;  (** Test scale. *)
  r_digest : string;
  r_config : Pipeline.config;
}

type aggregate = {
  agg_workload : string;
  agg_merge : Store.merge_state;
}

type t = {
  cfg : config;
  obs : Obs.t option;
  source : Pipeline.plan_source option;
  resolutions : (string, (resolution, string) result) Hashtbl.t;
  aggregates : (string, aggregate) Hashtbl.t;
  plans : (string, Pipeline.plan * float) Hashtbl.t;
      (** In-memory plan memo by program digest, with the aggregate mass
          the plan was derived (or adopted) at. *)
  mutable stop : bool;
  mutable n_record : int;
  mutable n_request : int;
  mutable n_stats : int;
  mutable n_shutdown : int;
  mutable n_errors : int;
  mutable plan_hits : int;
  mutable plan_misses : int;
  mutable plan_invalidations : int;
  mutable derived_aggregate : int;
  mutable derived_profiled : int;
  mutable adopted_cache : int;
}

(* {2 Aggregate persistence}

   Per-program aggregates survive restarts as profile artifacts under
   [<cache_dir>/aggregates/<digest>.profile.bin]. Saving snapshots the
   merged counts with the aggregate's mass and profile count in the
   header meta; loading adopts them unscaled ({!Store.merge_adopt}), so
   a stop/start cycle neither loses nor double-counts fleet mass.
   [created = 0.] keeps saved bytes deterministic for a given state. *)

let aggregates_subdir = "aggregates"
let aggregate_suffix = ".profile.bin"

let aggregate_dir_of cfg =
  Option.map
    (fun c -> Filename.concat (Plan_cache.dir c) aggregates_subdir)
    cfg.cache

let save_aggregates t =
  match aggregate_dir_of t.cfg with
  | None -> 0
  | Some dir ->
      let ok_dir =
        Sys.file_exists dir
        ||
        (try
           Unix.mkdir dir 0o755;
           true
         with Unix.Unix_error _ -> Sys.file_exists dir)
      in
      if not ok_dir then 0
      else
        Hashtbl.fold (fun digest agg acc -> (digest, agg) :: acc) t.aggregates []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.fold_left
             (fun saved (digest, agg) ->
               if Store.merge_count agg.agg_merge = 0 then saved
               else
                 match Store.merge_result agg.agg_merge with
                 | Error _ -> saved
                 | Ok (config, result) -> (
                     let extra_meta =
                       [
                         ("workload", Json.String agg.agg_workload);
                         ( "mass",
                           Json.Float (Store.merge_total_weight agg.agg_merge)
                         );
                         ("profiles", Json.Int (Store.merge_count agg.agg_merge));
                       ]
                     in
                     let path = Filename.concat dir (digest ^ aggregate_suffix) in
                     match Filename.temp_file ~temp_dir:dir "agg-" ".tmp" with
                     | exception Sys_error _ -> saved
                     | tmp -> (
                         let drop () =
                           try Sys.remove tmp with Sys_error _ -> ()
                         in
                         match
                           Store.write_profile ?obs:t.obs ~created:0.0 ~producer:"halo-serve" ~extra_meta
                             ~path:tmp ~program_digest:digest ~config result
                         with
                         | Error _ ->
                             drop ();
                             saved
                         | Ok () -> (
                             match Sys.rename tmp path with
                             | () ->
                                 Obs.count t.obs "serve.aggregates.saved" 1;
                                 saved + 1
                             | exception Sys_error _ ->
                                 drop ();
                                 saved))))
             0

let load_aggregates t =
  match aggregate_dir_of t.cfg with
  | None -> 0
  | Some dir -> (
      match Sys.readdir dir with
      | exception Sys_error _ -> 0
      | names ->
          Array.to_list names
          |> List.filter (fun n -> Filename.check_suffix n aggregate_suffix)
          |> List.sort compare
          |> List.fold_left
               (fun loaded name ->
                 let path = Filename.concat dir name in
                 match Store.read_profile ?obs:t.obs path with
                 | Error _ -> loaded
                 | Ok a -> (
                     let meta = a.Store.header.Store.meta in
                     let workload =
                       match List.assoc_opt "workload" meta with
                       | Some (Json.String w) -> w
                       | _ -> "unknown"
                     in
                     let mass =
                       match List.assoc_opt "mass" meta with
                       | Some (Json.Float m) -> m
                       | Some (Json.Int m) -> float_of_int m
                       | _ -> 1.0
                     in
                     let count =
                       match List.assoc_opt "profiles" meta with
                       | Some (Json.Int n) when n >= 0 -> n
                       | _ -> 1
                     in
                     if (not (Float.is_finite mass)) || mass <= 0.0 then loaded
                     else
                       let digest = a.Store.header.Store.program_digest in
                       let agg =
                         match Hashtbl.find_opt t.aggregates digest with
                         | Some agg -> agg
                         | None ->
                             let agg =
                               {
                                 agg_workload = workload;
                                 agg_merge = Store.merge_create ();
                               }
                             in
                             Hashtbl.replace t.aggregates digest agg;
                             agg
                       in
                       match Store.merge_adopt agg.agg_merge ~mass ~count a with
                       | Ok () ->
                           Obs.count t.obs "serve.aggregates.loaded" 1;
                           loaded + 1
                       | Error _ -> loaded))
               0)

let create ?obs cfg =
  let t =
    {
      cfg;
      obs;
      source = Option.map Plan_cache.source cfg.cache;
      resolutions = Hashtbl.create 16;
      aggregates = Hashtbl.create 16;
      plans = Hashtbl.create 16;
      stop = false;
      n_record = 0;
      n_request = 0;
      n_stats = 0;
      n_shutdown = 0;
      n_errors = 0;
      plan_hits = 0;
      plan_misses = 0;
      plan_invalidations = 0;
      derived_aggregate = 0;
      derived_profiled = 0;
      adopted_cache = 0;
    }
  in
  ignore (load_aggregates t : int);
  t

let shutdown_requested t = t.stop

let resolve t name =
  match Hashtbl.find_opt t.resolutions name with
  | Some r -> r
  | None ->
      let r =
        match Workloads.lookup name with
        | Error e -> Error (Workloads.lookup_error_to_string e)
        | Ok w ->
            let program = w.Workload.make Workload.Test in
            Ok
              {
                r_workload = w;
                r_program = program;
                r_digest = Ir_digest.program program;
                r_config = Workload.pipeline_config w t.cfg.pipeline;
              }
      in
      Hashtbl.replace t.resolutions name r;
      r

(* ------------------------------------------------------------------ *)
(* Prework: the pure, parallelisable half of a job.                    *)
(* ------------------------------------------------------------------ *)

(* A profile produced in-process gets a synthetic artifact wrapper so it
   flows through the same digest-checked merge path as one decoded from
   disk. [created = 0.] keeps the value deterministic; it is never
   persisted. *)
let artifact_of_result ~program_digest ~config result =
  {
    Store.header =
      {
        Store.version = Store.version;
        kind = "profile";
        program_digest;
        config_digest = Store.profile_config_digest config;
        created = 0.0;
        producer = "halo-serve";
        meta = [];
      };
    config;
    result;
  }

type prework =
  | P_nothing
  | P_artifact of {
      artifact : (Store.profile_artifact, string) result;
      workload : string;
      weight : float;
      seconds : float;  (** Prework wall time, charged to job latency. *)
    }

let prework t wobs (job : Serve_proto.job) =
  match job.Serve_proto.payload with
  | Serve_proto.Profile_record { workload; seed; weight; scale } -> (
      match resolve t workload with
      | Error _ -> P_nothing (* the fold reports the resolution error *)
      | Ok r ->
          let t0 = Unix.gettimeofday () in
          let program =
            match scale with
            | Workload.Test -> r.r_program
            | s -> r.r_workload.Workload.make s
          in
          let config =
            { r.r_config.Pipeline.profiler with Profiler.seed }
          in
          let result = Profiler.profile ?obs:wobs ~config program in
          let artifact =
            Ok (artifact_of_result ~program_digest:r.r_digest ~config result)
          in
          P_artifact
            {
              artifact;
              workload;
              weight;
              seconds = Unix.gettimeofday () -. t0;
            })
  | Serve_proto.Profile_load { path; weight } ->
      let t0 = Unix.gettimeofday () in
      let artifact =
        match Store.read_profile ?obs:wobs path with
        | Ok a -> Ok a
        | Error e -> Error (Store.error_to_string e)
      in
      let workload =
        match artifact with
        | Ok a -> (
            match List.assoc_opt "workload" a.Store.header.Store.meta with
            | Some (Json.String w) -> w
            | _ -> "unknown")
        | Error _ -> "unknown"
      in
      P_artifact
        { artifact; workload; weight; seconds = Unix.gettimeofday () -. t0 }
  | Serve_proto.Plan_request _ | Serve_proto.Stats | Serve_proto.Shutdown ->
      P_nothing

(* ------------------------------------------------------------------ *)
(* The sequential fold: all state mutation, in submission order.       *)
(* ------------------------------------------------------------------ *)

let mass_of t digest =
  match Hashtbl.find_opt t.aggregates digest with
  | Some a -> Store.merge_total_weight a.agg_merge
  | None -> 0.0

let apply_record t ~id ~workload ~weight artifact =
  match artifact with
  | Error msg ->
      t.n_errors <- t.n_errors + 1;
      Serve_proto.error_response ~id:(Some id) msg
  | Ok (a : Store.profile_artifact) -> (
      let digest = a.Store.header.Store.program_digest in
      let agg =
        match Hashtbl.find_opt t.aggregates digest with
        | Some agg -> agg
        | None ->
            let agg =
              { agg_workload = workload; agg_merge = Store.merge_create () }
            in
            Hashtbl.replace t.aggregates digest agg;
            agg
      in
      match Store.merge_add agg.agg_merge (a, weight) with
      | Error e ->
          t.n_errors <- t.n_errors + 1;
          Serve_proto.error_response ~id:(Some id) (Store.error_to_string e)
      | Ok () ->
          t.n_record <- t.n_record + 1;
          let mass = Store.merge_total_weight agg.agg_merge in
          (* Eager invalidation: enough new mass since the current plan
             was derived retires it now; the re-derivation is lazy. *)
          (match Hashtbl.find_opt t.plans digest with
          | Some (_, at_mass)
            when mass -. at_mass >= t.cfg.staleness_weight ->
              Hashtbl.remove t.plans digest;
              t.plan_invalidations <- t.plan_invalidations + 1;
              Obs.count t.obs "serve.plan.invalidations" 1
          | _ -> ());
          Serve_proto.ok_response ~id ~kind:"profile-record"
            [
              ("workload", Json.String workload);
              ("program", Json.String digest);
              ("profiles", Json.Int (Store.merge_count agg.agg_merge));
              ("mass", Json.Float mass);
              ("accesses", Json.Int a.Store.result.Profiler.total_accesses);
            ])

let apply_plan_request t ~id workload =
  match resolve t workload with
  | Error msg ->
      t.n_errors <- t.n_errors + 1;
      Serve_proto.error_response ~id:(Some id) msg
  | Ok r ->
      t.n_request <- t.n_request + 1;
      let digest = r.r_digest in
      let respond ~source (plan : Pipeline.plan) =
        Serve_proto.ok_response ~id ~kind:"plan-request"
          [
            ("workload", Json.String workload);
            ("program", Json.String digest);
            ("config", Json.String (Store.plan_config_digest r.r_config));
            ("source", Json.String source);
            ("groups", Json.Int (Array.length plan.Pipeline.grouping.Grouping.groups));
            ( "monitored_sites",
              Json.Int
                (List.length (Identify.monitored_sites plan.Pipeline.selectors))
            );
            ( "graph_nodes",
              Json.Int
                (List.length
                   (Affinity_graph.nodes plan.Pipeline.profile.Profiler.graph))
            );
            ( "profiles",
              Json.Int
                (match Hashtbl.find_opt t.aggregates digest with
                | Some a -> Store.merge_count a.agg_merge
                | None -> 0) );
            ("mass", Json.Float (mass_of t digest));
          ]
      in
      let hit () =
        t.plan_hits <- t.plan_hits + 1;
        Obs.count t.obs "serve.plan.hits" 1
      in
      let miss () =
        t.plan_misses <- t.plan_misses + 1;
        Obs.count t.obs "serve.plan.misses" 1
      in
      let adopt ~source ~at_mass plan =
        Hashtbl.replace t.plans digest (plan, at_mass);
        respond ~source plan
      in
      (match Hashtbl.find_opt t.plans digest with
      | Some (plan, _) ->
          hit ();
          respond ~source:"memory" plan
      | None -> (
          match Hashtbl.find_opt t.aggregates digest with
          | Some agg when Store.merge_count agg.agg_merge > 0 -> (
              (* The aggregate outranks any disk entry: a memo miss with
                 live mass means no current plan exists for that mass. *)
              match
                Result.bind (Store.merge_result agg.agg_merge)
                  (fun (_, merged) ->
                    Store.derive_plan ?obs:t.obs ~config:r.r_config merged)
              with
              | Error e ->
                  t.n_errors <- t.n_errors + 1;
                  Serve_proto.error_response ~id:(Some id)
                    (Store.error_to_string e)
              | Ok plan ->
                  miss ();
                  t.derived_aggregate <- t.derived_aggregate + 1;
                  (match t.source with
                  | Some s -> s.Pipeline.store t.obs r.r_program r.r_config plan
                  | None -> ());
                  adopt ~source:"aggregate"
                    ~at_mass:(Store.merge_total_weight agg.agg_merge)
                    plan)
          | _ -> (
              let cached =
                match t.source with
                | Some s -> s.Pipeline.lookup t.obs r.r_program r.r_config
                | None -> None
              in
              match cached with
              | Some plan ->
                  hit ();
                  t.adopted_cache <- t.adopted_cache + 1;
                  adopt ~source:"cache" ~at_mass:(mass_of t digest) plan
              | None ->
                  miss ();
                  t.derived_profiled <- t.derived_profiled + 1;
                  let plan =
                    Pipeline.plan ?obs:t.obs ~config:r.r_config r.r_program
                  in
                  (match t.source with
                  | Some s -> s.Pipeline.store t.obs r.r_program r.r_config plan
                  | None -> ());
                  adopt ~source:"profiled" ~at_mass:(mass_of t digest) plan)))

let stats_json t =
  let cache_stats, cache_entries =
    match t.cfg.cache with
    | Some c -> (Plan_cache.stats c, List.length (Plan_cache.entry_names c))
    | None -> ({ Plan_cache.hits = 0; misses = 0; stores = 0; evictions = 0 }, 0)
  in
  let programs =
    Hashtbl.fold
      (fun digest agg acc ->
        let mass = Store.merge_total_weight agg.agg_merge in
        let plan =
          match Hashtbl.find_opt t.plans digest with
          | Some (_, at_mass) -> Json.Float at_mass
          | None -> Json.Null
        in
        ( digest,
          Json.Obj
            [
              ("program", Json.String digest);
              ("workload", Json.String agg.agg_workload);
              ("profiles", Json.Int (Store.merge_count agg.agg_merge));
              ("mass", Json.Float mass);
              ("plan_mass", plan);
            ] )
        :: acc)
      t.aggregates []
    |> List.sort compare |> List.map snd
  in
  Json.Obj
    [
      ( "jobs",
        Json.Obj
          [
            ("profile-record", Json.Int t.n_record);
            ("plan-request", Json.Int t.n_request);
            ("stats", Json.Int t.n_stats);
            ("shutdown", Json.Int t.n_shutdown);
            ("errors", Json.Int t.n_errors);
          ] );
      ( "plan",
        Json.Obj
          [
            ("hits", Json.Int t.plan_hits);
            ("misses", Json.Int t.plan_misses);
            ("invalidations", Json.Int t.plan_invalidations);
            ("derived_from_aggregate", Json.Int t.derived_aggregate);
            ("derived_by_profiling", Json.Int t.derived_profiled);
            ("adopted_from_cache", Json.Int t.adopted_cache);
          ] );
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Int cache_stats.Plan_cache.hits);
            ("misses", Json.Int cache_stats.Plan_cache.misses);
            ("stores", Json.Int cache_stats.Plan_cache.stores);
            ("evictions", Json.Int cache_stats.Plan_cache.evictions);
            ("entries", Json.Int cache_entries);
          ] );
      ( "merge",
        Json.Obj
          [
            ("profiles", Json.Int t.n_record);
            ("programs", Json.Int (Hashtbl.length t.aggregates));
          ] );
      ("staleness_weight", Json.Float t.cfg.staleness_weight);
      ("programs", Json.List programs);
    ]

let apply t (job : Serve_proto.job) pre =
  let id = job.Serve_proto.id in
  match (job.Serve_proto.payload, pre) with
  | _ when t.stop ->
      t.n_errors <- t.n_errors + 1;
      Serve_proto.error_response ~id:(Some id) "server is shutting down"
  | Serve_proto.Profile_record { workload; _ }, P_nothing ->
      (* Resolution failed before prework; report it. *)
      let msg =
        match resolve t workload with Error m -> m | Ok _ -> "internal error"
      in
      t.n_errors <- t.n_errors + 1;
      Serve_proto.error_response ~id:(Some id) msg
  | ( (Serve_proto.Profile_record _ | Serve_proto.Profile_load _),
      P_artifact { artifact; workload; weight; seconds = _ } ) ->
      apply_record t ~id ~workload ~weight artifact
  | Serve_proto.Profile_load _, P_nothing ->
      t.n_errors <- t.n_errors + 1;
      Serve_proto.error_response ~id:(Some id) "internal error: missing prework"
  | Serve_proto.Plan_request { workload }, _ -> apply_plan_request t ~id workload
  | Serve_proto.Stats, _ -> (
      t.n_stats <- t.n_stats + 1;
      match stats_json t with
      | Json.Obj fields -> Serve_proto.ok_response ~id ~kind:"stats" fields
      | j -> Serve_proto.ok_response ~id ~kind:"stats" [ ("stats", j) ])
  | Serve_proto.Shutdown, _ ->
      t.n_shutdown <- t.n_shutdown + 1;
      t.stop <- true;
      Serve_proto.ok_response ~id ~kind:"shutdown" []

let prework_seconds = function
  | P_nothing -> 0.0
  | P_artifact { seconds; _ } -> seconds

(* ------------------------------------------------------------------ *)
(* Batch driver.                                                       *)
(* ------------------------------------------------------------------ *)

(* Prework in parallel, then the fold in submission order. Untraced, the
   fold reads no clock and builds no metric name per job. *)
let fold_batch t jobs =
  (* Prework stops at the first shutdown job: anything after it is
     answered with an error and must not burn profiler time. *)
  let rec split_active acc = function
    | [] -> (List.rev acc, [])
    | ({ Serve_proto.payload = Serve_proto.Shutdown; _ } as j) :: rest ->
        (List.rev (j :: acc), rest)
    | j :: rest -> split_active (j :: acc) rest
  in
  let active, rest = split_active [] jobs in
  let active = if t.stop then [] else active in
  let rest = if t.stop then jobs else rest in
  (* Sequential resolution first: the memo table is shared, so workers
     must only read programs, never build the memo. *)
  List.iter
    (fun (j : Serve_proto.job) ->
      match j.Serve_proto.payload with
      | Serve_proto.Profile_record { workload; _ }
      | Serve_proto.Plan_request { workload } ->
          ignore (resolve t workload)
      | _ -> ())
    active;
  let preworks =
    Par.map_obs ?obs:t.obs ~name:"serve" ~jobs:t.cfg.jobs
      (fun wobs job -> prework t wobs job)
      active
  in
  let respond =
    match t.obs with
    | None -> apply t
    | Some _ ->
        let depth = ref (List.length jobs) in
        Obs.set_gauge t.obs "serve.queue_depth" (float_of_int !depth);
        fun job pre ->
          let f0 = Unix.gettimeofday () in
          let resp = apply t job pre in
          let latency = Unix.gettimeofday () -. f0 +. prework_seconds pre in
          let kind = Serve_proto.job_name job.Serve_proto.payload in
          Obs.count t.obs ("serve.jobs." ^ kind) 1;
          Obs.observe t.obs ("serve.job." ^ kind ^ ".latency_s") latency;
          Obs.observe t.obs "serve.job.latency_s" latency;
          decr depth;
          Obs.set_gauge t.obs "serve.queue_depth" (float_of_int !depth);
          resp
  in
  let responses = List.map2 respond active preworks in
  let late = List.map (fun job -> respond job P_nothing) rest in
  responses @ late

let handle_batch t jobs =
  match (jobs, t.obs) with
  | [], _ -> []
  | _, None -> fold_batch t jobs
  | _, Some _ ->
      Obs.span t.obs "serve.batch"
        ~attrs:
          [
            ("stage", Json.String "serve");
            ("jobs", Json.Int (List.length jobs));
          ]
        (fun () -> fold_batch t jobs)

(* A line that names no job it could run. *)
let reject t ~id msg =
  t.n_errors <- t.n_errors + 1;
  Obs.count t.obs "serve.jobs.errors" 1;
  Serve_proto.error_response ~id msg

let handle_line t line =
  match Serve_proto.parse_line line with
  | Ok job -> ( match handle_batch t [ job ] with [ r ] -> r | _ -> assert false)
  | Error (id, msg) -> reject t ~id msg

(* {2 The serve loop}

   Both transports answer whatever complete lines one read delivered:
   each line is parsed once, a run of parsed jobs is one [handle_batch],
   and a line that names no job (unparsable or over-long) is answered in
   its place. The fold is sequential, so where a read splits the stream
   never changes a response: a piped file gives many-job batches whose
   prework fans out over [--jobs], a closed-loop client one-job
   batches. *)

let answer_lines t lines =
  let run_batch run acc = List.rev_append (handle_batch t (List.rev run)) acc in
  let rec go acc run = function
    | [] -> List.rev (run_batch run acc)
    | line :: rest -> (
        let parsed =
          match line with
          | Ok line -> Serve_proto.parse_line line
          | Error msg -> Error (None, msg)
        in
        match parsed with
        | Ok job -> go acc (job :: run) rest
        | Error (id, msg) -> go (reject t ~id msg :: run_batch run acc) [] rest)
  in
  go [] [] lines

(* One read's worth of the loop: read once, answer the complete lines,
   write and flush their responses. Returns whether the stream is still
   open and how many responses were written. *)
let serve_read t reader oc =
  let more = Line_reader.read reader in
  let responses = answer_lines t (Line_reader.lines reader) in
  List.iter
    (fun r ->
      output_string oc (Serve_proto.response_line r);
      output_char oc '\n')
    responses;
  flush oc;
  (more, List.length responses)

let save_on_exit t =
  Option.iter Plan_cache.save_stats t.cfg.cache;
  ignore (save_aggregates t : int)

let run_channels t ic oc =
  let reader = Line_reader.create (Unix.descr_of_in_channel ic) in
  let rec loop written =
    let more, n = serve_read t reader oc in
    if more then loop (written + n) else written + n
  in
  let written = loop 0 in
  save_on_exit t;
  written

type conn = { reader : Line_reader.t; oc : out_channel }

let run_socket t ~path =
  (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* A client that hangs up before reading its responses must not kill
     the daemon: with SIGPIPE ignored, the write fails with EPIPE and
     only that connection closes. *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let conns = Hashtbl.create 8 in
  let close fd =
    (* Flushes what it can and closes [fd]; a closed channel keeps no
       unsent bytes for a later flush to write to a reused descriptor. *)
    close_out_noerr (Hashtbl.find conns fd).oc;
    Hashtbl.remove conns fd
  in
  let written = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe sigpipe;
      List.iter close (List.of_seq (Hashtbl.to_seq_keys conns));
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
      save_on_exit t)
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      (* One [select] over the listening socket and every open
         connection: a client holding a partial line delays nobody,
         because a read takes only what has arrived. At the connection
         cap the listening socket leaves the set and new clients wait in
         the backlog. *)
      let ready fd =
        if t.stop then ()
        else if fd = sock then (
          match Unix.accept sock with
          | conn, _ ->
              Hashtbl.replace conns conn
                {
                  reader = Line_reader.create conn;
                  oc = Unix.out_channel_of_descr conn;
                }
          | exception Unix.Unix_error _ -> ())
        else
          let c = Hashtbl.find conns fd in
          match serve_read t c.reader c.oc with
          | more, n ->
              written := !written + n;
              if not more then close fd
          | exception (Sys_error _ | Unix.Unix_error _) -> close fd
      in
      while not t.stop do
        let fds = List.of_seq (Hashtbl.to_seq_keys conns) in
        let fds =
          if Hashtbl.length conns < Serve_proto.max_connections then
            sock :: fds
          else fds
        in
        match Unix.select fds [] [] (-1.0) with
        | readable, _, _ -> List.iter ready readable
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      done;
      !written)
