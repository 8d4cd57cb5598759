(* Reading job lines straight off a file descriptor: [Unix.read] can
   return short (a peer trickling bytes, a small pipe buffer) or fail
   with [EINTR] (a signal landing mid-read), and neither is an error —
   a line is done when its '\n' arrives, whatever the framing. The
   buffered channel layer retries neither, so the socket loop uses this
   reader instead of [input_line].

   Received bytes live in [buf.[start .. stop)]; a read appends after
   [stop], first sliding the unread bytes to the front or doubling the
   buffer when there is no room, so each byte is copied O(1) times
   amortised. The newline search resumes at [scan], so a long line is
   scanned once, not once per read. A line longer than
   [Serve_proto.max_line_bytes] is dropped as it arrives, up to its
   newline, which bounds the buffer. *)
module Line_reader = struct
  type t = {
    fd : Unix.file_descr;
    chunk : int;
    mutable buf : Bytes.t;
    mutable start : int;  (** First byte not yet consumed. *)
    mutable stop : int;  (** End of the bytes received. *)
    mutable scan : int;  (** [buf.[start .. scan)] holds no newline. *)
    mutable eof : bool;
  }

  let create ?(buf_size = 4096) fd =
    let chunk = max 1 buf_size in
    {
      fd;
      chunk;
      buf = Bytes.create chunk;
      start = 0;
      stop = 0;
      scan = 0;
      eof = false;
    }

  let rec refill t =
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
    match Unix.read t.fd t.buf t.stop t.chunk with
    | 0 -> t.eof <- true
    | n -> t.stop <- t.stop + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill t

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

  (* Drop the rest of an over-long line, through its newline. *)
  let rec skip_line t =
    match find_newline t with
    | Some nl -> consume t (nl + 1)
    | None ->
        consume t t.stop;
        if not t.eof then begin
          refill t;
          skip_line t
        end

  let rec read_line t =
    match find_newline t with
    | Some nl when nl - t.start > Serve_proto.max_line_bytes ->
        consume t (nl + 1);
        Some too_long
    | Some nl ->
        (* CRLF tolerance, matching the store's line discipline. *)
        let stop =
          if nl > t.start && Bytes.get t.buf (nl - 1) = '\r' then nl - 1
          else nl
        in
        let line = Bytes.sub_string t.buf t.start (stop - t.start) in
        consume t (nl + 1);
        Some (Ok line)
    | None when t.stop - t.start > Serve_proto.max_line_bytes ->
        skip_line t;
        Some too_long
    | None when t.eof ->
        if t.start >= t.stop then None
        else begin
          (* Final line with no trailing newline: still a line. *)
          let line = Bytes.sub_string t.buf t.start (t.stop - t.start) in
          consume t t.stop;
          Some (Ok line)
        end
    | None ->
        refill t;
        read_line t
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
  mutable records_merged : int;
  mutable merge_wall_s : float;
  mutable batch_wall_s : float;
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
      records_merged = 0;
      merge_wall_s = 0.0;
      batch_wall_s = 0.0;
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
            let base = t.cfg.pipeline in
            let config =
              {
                base with
                Pipeline.grouping = w.Workload.halo_grouping base.Pipeline.grouping;
                allocator = w.Workload.halo_allocator base.Pipeline.allocator;
              }
            in
            Ok
              {
                r_workload = w;
                r_program = program;
                r_digest = Ir_digest.program program;
                r_config = config;
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
      let t0 = Unix.gettimeofday () in
      match Store.merge_add agg.agg_merge (a, weight) with
      | Error e ->
          t.n_errors <- t.n_errors + 1;
          Serve_proto.error_response ~id:(Some id) (Store.error_to_string e)
      | Ok () ->
          t.merge_wall_s <- t.merge_wall_s +. (Unix.gettimeofday () -. t0);
          t.records_merged <- t.records_merged + 1;
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
              match Store.merge_result agg.agg_merge with
              | Error e ->
                  t.n_errors <- t.n_errors + 1;
                  Serve_proto.error_response ~id:(Some id)
                    (Store.error_to_string e)
              | Ok (_, merged) ->
                  miss ();
                  t.derived_aggregate <- t.derived_aggregate + 1;
                  let plan =
                    Pipeline.derive ?obs:t.obs ~config:r.r_config merged
                  in
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
            ("profiles", Json.Int t.records_merged);
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

let handle_batch t jobs =
  match jobs with
  | [] -> []
  | _ ->
      Obs.span t.obs "serve.batch"
        ~attrs:
          [
            ("stage", Json.String "serve");
            ("jobs", Json.Int (List.length jobs));
          ]
        (fun () ->
          let t0 = Unix.gettimeofday () in
          (* Prework stops at the first shutdown job: anything after it
             is answered with an error and must not burn profiler time. *)
          let rec split_active acc = function
            | [] -> (List.rev acc, [])
            | ({ Serve_proto.payload = Serve_proto.Shutdown; _ } as j) :: rest
              ->
                (List.rev (j :: acc), rest)
            | j :: rest -> split_active (j :: acc) rest
          in
          let active, rest = split_active [] jobs in
          let active = if t.stop then [] else active in
          let rest = if t.stop then jobs else rest in
          (* Sequential resolution first: the memo table is shared, so
             workers must only read programs, never build the memo. *)
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
          let depth = ref (List.length jobs) in
          Obs.set_gauge t.obs "serve.queue_depth" (float_of_int !depth);
          let respond job pre =
            let f0 = Unix.gettimeofday () in
            let resp = apply t job pre in
            let latency =
              Unix.gettimeofday () -. f0 +. prework_seconds pre
            in
            let kind = Serve_proto.job_name job.Serve_proto.payload in
            Obs.observe t.obs
              (Printf.sprintf "serve.job.%s.latency_s" kind)
              latency;
            Obs.observe t.obs "serve.job.latency_s" latency;
            decr depth;
            Obs.set_gauge t.obs "serve.queue_depth" (float_of_int !depth);
            resp
          in
          let responses = List.map2 respond active preworks in
          let late = List.map (fun job -> respond job P_nothing) rest in
          t.batch_wall_s <- t.batch_wall_s +. (Unix.gettimeofday () -. t0);
          if t.records_merged > 0 && t.batch_wall_s > 0.0 then
            Obs.set_gauge t.obs "serve.merge.profiles_per_sec"
              (float_of_int t.records_merged /. t.batch_wall_s);
          responses @ late)

let id_of_line line =
  match Json.of_string line with
  | Ok j -> ( match Json.get_int "id" j with Ok i -> Some i | Error _ -> None)
  | Error _ -> None

(* A line that names no job it could run. *)
let reject t ~id msg =
  t.n_errors <- t.n_errors + 1;
  Obs.count t.obs "serve.jobs.errors" 1;
  Serve_proto.error_response ~id msg

let handle_line t line =
  match Serve_proto.job_of_line line with
  | Ok job -> ( match handle_batch t [ job ] with [ r ] -> r | _ -> assert false)
  | Error msg -> reject t ~id:(id_of_line line) msg

let count_job_metric t job =
  Obs.count t.obs
    (Printf.sprintf "serve.jobs.%s"
       (Serve_proto.job_name job.Serve_proto.payload))
    1

(* Wave size for stdin-batch mode: big enough to keep every worker busy,
   small enough that the queue-depth gauge means something. Semantics are
   wave-size independent (the fold is sequential either way). *)
let wave_size = 256

let run_channels t ic oc =
  let lines = In_channel.input_lines ic in
  let items =
    List.map
      (fun line ->
        match Serve_proto.job_of_line line with
        | Ok job -> Ok job
        | Error msg -> Error (id_of_line line, msg))
      lines
  in
  let written = ref 0 in
  let emit resp =
    output_string oc (Serve_proto.response_line resp);
    output_char oc '\n';
    incr written
  in
  let rec waves items =
    match items with
    | [] -> ()
    | _ ->
        let rec take n acc = function
          | rest when n = 0 -> (List.rev acc, rest)
          | [] -> (List.rev acc, [])
          | x :: rest -> take (n - 1) (x :: acc) rest
        in
        let wave, rest = take wave_size [] items in
        let jobs = List.filter_map Result.to_option wave in
        List.iter (count_job_metric t) jobs;
        let responses = ref (handle_batch t jobs) in
        List.iter
          (fun item ->
            match item with
            | Error (id, msg) -> emit (reject t ~id msg)
            | Ok _ -> (
                match !responses with
                | r :: tl ->
                    responses := tl;
                    emit r
                | [] -> assert false))
          wave;
        waves rest
  in
  waves items;
  flush oc;
  Option.iter Plan_cache.save_stats t.cfg.cache;
  ignore (save_aggregates t : int);
  !written

let run_socket t ~path =
  (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* A client that hangs up before reading its responses must not kill
     the daemon: with SIGPIPE ignored, the write fails with EPIPE and
     only that connection closes. *)
  let sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let written = ref 0 in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe sigpipe;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ());
      Option.iter Plan_cache.save_stats t.cfg.cache;
      ignore (save_aggregates t : int))
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept () =
        match Unix.accept sock with
        | conn_addr -> conn_addr
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept ()
      in
      let rec accept_loop () =
        if t.stop then ()
        else begin
          let conn, _ = accept () in
          (* Reads go through [Line_reader] — a [Unix.read] loop with
             retry-on-EINTR and a partial-line buffer — so a signal or a
             peer that dribbles bytes across short reads cannot split or
             drop a request at a line boundary. *)
          let lr = Line_reader.create conn in
          let oc = Unix.out_channel_of_descr conn in
          let rec serve_conn () =
            match Line_reader.read_line lr with
            | None -> ()
            | Some line ->
                let resp =
                  match line with
                  | Error msg -> reject t ~id:None msg
                  | Ok line ->
                      (match Serve_proto.job_of_line line with
                      | Ok job -> count_job_metric t job
                      | Error _ -> ());
                      handle_line t line
                in
                output_string oc (Serve_proto.response_line resp);
                output_char oc '\n';
                flush oc;
                incr written;
                if t.stop then () else serve_conn ()
          in
          (try serve_conn () with Sys_error _ | Unix.Unix_error _ -> ());
          (* Flushes what it can and closes [conn]; a closed channel
             keeps no unsent bytes for a later flush to write to a
             reused descriptor. *)
          close_out_noerr oc;
          accept_loop ()
        end
      in
      accept_loop ();
      !written)
