(* Tests for the continuous-profiling service: protocol round-trips and
   rejection paths, batch determinism across worker counts, the
   staleness/invalidation policy, warm-cache serving with zero profiler
   runs, the fleet simulator's deterministic schedule, and the
   Unix-domain socket loop. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let tmp_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "halo-serve-test-%d-%d" (Unix.getpid ()) !n)

let jok = function
  | Ok v -> v
  | Error e -> Alcotest.fail e

let record id workload seed weight =
  {
    Serve_proto.id;
    payload =
      Serve_proto.Profile_record
        { workload; seed; weight; scale = Workload.Test };
  }

let request id workload =
  { Serve_proto.id; payload = Serve_proto.Plan_request { workload } }

let stats id = { Serve_proto.id; payload = Serve_proto.Stats }
let shutdown id = { Serve_proto.id; payload = Serve_proto.Shutdown }

let counter obs name =
  Metrics.counter_value (Metrics.counter (Obs.metrics obs) name)

let field_string name j =
  match Json.get_string name j with
  | Ok s -> s
  | Error e -> Alcotest.fail e

(* ---------------- protocol ---------------- *)

let proto_round_trips () =
  List.iter
    (fun job ->
      let back = jok (Serve_proto.job_of_json (Serve_proto.job_to_json job)) in
      checkb "round-trips" true (back = job))
    [
      record 1 "ft" 3 1.0;
      {
        Serve_proto.id = 2;
        payload =
          Serve_proto.Profile_record
            { workload = "health"; seed = 9; weight = 2.5; scale = Workload.Ref };
      };
      {
        Serve_proto.id = 3;
        payload = Serve_proto.Profile_load { path = "x.jsonl"; weight = 0.5 };
      };
      request 4 "omnetpp";
      stats 5;
      shutdown 6;
    ]

let proto_defaults () =
  let job =
    jok (Serve_proto.job_of_line {|{"job":"profile-record","id":7,"workload":"ft"}|})
  in
  (match job.Serve_proto.payload with
  | Serve_proto.Profile_record { workload; seed; weight; scale } ->
      checks "workload" "ft" workload;
      checki "seed defaults to 1" 1 seed;
      checkb "weight defaults to 1" true (weight = 1.0);
      checkb "scale defaults to test" true (scale = Workload.Test)
  | _ -> Alcotest.fail "wrong payload");
  checki "id parsed" 7 job.Serve_proto.id

let proto_rejects () =
  let fails line =
    match Serve_proto.job_of_line line with
    | Ok _ -> Alcotest.fail ("accepted: " ^ line)
    | Error _ -> ()
  in
  fails "not json at all";
  fails {|{"id":1}|};
  fails {|{"job":"frobnicate","id":1}|};
  fails {|{"job":"profile-record","id":1,"workload":"ft","weight":0}|};
  fails {|{"job":"profile-record","id":1,"workload":"ft","weight":-2}|};
  fails {|{"job":"profile-record","id":1,"workload":"ft","scale":"huge"}|};
  fails {|{"job":"plan-request","id":1}|}

(* ---------------- engine ---------------- *)

let config ?cache ?(jobs = 1) ?(staleness = Serve.default_staleness_weight) ()
    =
  {
    Serve.jobs;
    staleness_weight = staleness;
    pipeline = Pipeline.default_config;
    cache;
  }

let mixed_stream =
  [
    record 1 "ft" 3 1.0;
    record 2 "health" 5 2.0;
    request 3 "ft";
    request 4 "health";
    record 5 "ft" 7 4.0;
    request 6 "ft";
    stats 7;
  ]

let batch_deterministic_across_jobs () =
  let responses jobs =
    let cache = Plan_cache.create (tmp_dir ()) in
    let engine = Serve.create (config ~cache ~jobs ()) in
    Serve.handle_batch engine mixed_stream
    |> List.map Serve_proto.response_line
    |> String.concat "\n"
  in
  checks "response stream byte-identical at --jobs 1 and --jobs 4"
    (responses 1) (responses 4)

let staleness_policy () =
  let obs = Obs.create () in
  let engine = Serve.create ~obs (config ~staleness:4.0 ()) in
  let one job = List.hd (Serve.handle_batch engine [ job ]) in
  ignore (one (record 1 "ft" 3 1.0) : Json.t);
  let r1 = one (request 2 "ft") in
  checks "first plan derives from the aggregate" "aggregate"
    (field_string "source" r1);
  ignore (one (record 3 "ft" 4 3.9) : Json.t);
  checki "under the threshold: no invalidation" 0
    (counter obs "serve.plan.invalidations");
  checks "still served from memory" "memory" (field_string "source" (one (request 4 "ft")));
  ignore (one (record 5 "ft" 5 0.2) : Json.t);
  checki "mass beyond the threshold invalidates eagerly" 1
    (counter obs "serve.plan.invalidations");
  checks "next request re-derives from the aggregate" "aggregate"
    (field_string "source" (one (request 6 "ft")));
  checki "requests were hit/miss counted" 1 (counter obs "serve.plan.hits");
  checki "two derivations were misses" 2 (counter obs "serve.plan.misses");
  checki "no profiler run beyond the three records" 3
    (counter obs "profile.runs")

let warm_cache_serves_without_profiling () =
  let dir = tmp_dir () in
  (* First process: cold request profiles once and stores the plan. *)
  let cold = Serve.create (config ~cache:(Plan_cache.create dir) ()) in
  checks "cold request profiles" "profiled"
    (field_string "source" (List.hd (Serve.handle_batch cold [ request 1 "ft" ])));
  (* Second process: same cache directory, fresh engine and obs. *)
  let obs = Obs.create () in
  let warm = Serve.create ~obs (config ~cache:(Plan_cache.create dir) ()) in
  let r1 = List.hd (Serve.handle_batch warm [ request 1 "ft" ]) in
  checks "warm request adopts the cached plan" "cache" (field_string "source" r1);
  let r2 = List.hd (Serve.handle_batch warm [ request 2 "ft" ]) in
  checks "repeat request is a memory hit" "memory" (field_string "source" r2);
  checki "warm engine never profiles" 0 (counter obs "profile.runs")

let shutdown_semantics () =
  let engine = Serve.create (config ()) in
  let rs =
    Serve.handle_batch engine [ stats 1; shutdown 2; request 3 "ft" ]
  in
  (match rs with
  | [ a; b; c ] ->
      checkb "stats ok" true (Json.get_bool "ok" a = Ok true);
      checkb "shutdown acknowledged" true (Json.get_bool "ok" b = Ok true);
      checkb "post-shutdown job refused" true (Json.get_bool "ok" c = Ok false)
  | l -> Alcotest.fail (Printf.sprintf "expected 3 responses, got %d" (List.length l)));
  checkb "engine is stopping" true (Serve.shutdown_requested engine);
  checkb "later batches refuse too" true
    (Json.get_bool "ok" (List.hd (Serve.handle_batch engine [ stats 4 ]))
    = Ok false)

let handle_line_recovers () =
  let engine = Serve.create (config ()) in
  let bad = Serve.handle_line engine "{not json" in
  checkb "parse failure is an error response" true
    (Json.get_bool "ok" bad = Ok false);
  let unknown = Serve.handle_line engine {|{"job":"plan-request","id":9,"workload":"nope"}|} in
  checkb "unknown workload is an error response" true
    (Json.get_bool "ok" unknown = Ok false);
  checkb "id recovered" true (Json.get_int "id" unknown = Ok 9)

let handle_line_hostile_artifact () =
  (* A checksum-valid profile artifact carrying a negative node count:
     the decoder's typed error becomes an error response, not an
     exception that would end the daemon's connection loop. *)
  let path = T_store.hostile_profile () in
  let engine = Serve.create (config ()) in
  let r =
    Serve.handle_line engine
      (Printf.sprintf {|{"job":"profile-record","id":1,"artifact":%S}|} path)
  in
  Sys.remove path;
  checkb "hostile artifact is an error response" true
    (Json.get_bool "ok" r = Ok false);
  checkb "id recovered" true (Json.get_int "id" r = Ok 1)

let handle_line_over_budget_profile () =
  (* A well-formed profile whose groups need more monitored sites than the
     group-state vector holds: recording it succeeds, and the plan request
     answers with the groups that fit in the 64 bits. *)
  let path = T_store.crafted_profile ~n:80 ~base:1000 in
  let engine = Serve.create (config ()) in
  let recorded =
    Serve.handle_line engine
      (Printf.sprintf {|{"job":"profile-record","id":1,"artifact":%S}|} path)
  in
  Sys.remove path;
  checkb "the artifact records" true (Json.get_bool "ok" recorded = Ok true);
  let planned =
    Serve.handle_line engine {|{"job":"plan-request","id":2,"workload":"ft"}|}
  in
  checkb "plan request is ok" true (Json.get_bool "ok" planned = Ok true);
  checkb "planned from the aggregate" true
    (Json.get_string "source" planned = Ok "aggregate");
  checkb "the sites fill the group-state vector" true
    (Json.get_int "monitored_sites" planned = Ok Rewrite.max_bits)

(* ---------------- fleet simulator ---------------- *)

let sim_stream_deterministic () =
  let cfg =
    { Serve_sim.default_config with Serve_sim.clients = 40; rounds = 3; seed = 9 }
  in
  checkb "same config, same schedule" true
    (Serve_sim.job_stream cfg = Serve_sim.job_stream cfg);
  checkb "seed changes the schedule" true
    (Serve_sim.job_stream { cfg with Serve_sim.seed = 10 }
    <> Serve_sim.job_stream cfg);
  let flat = List.concat (Serve_sim.job_stream cfg) in
  checki "ids number the flattened stream" (List.length flat)
    (List.length
       (List.filteri (fun i j -> j.Serve_proto.id = i + 1) flat))

(* A fleet replay's numbers come from the engine's stats and the traced
   registry, which must agree. *)
let sim_run_smoke () =
  let cfg =
    {
      Serve_sim.default_config with
      Serve_sim.clients = 40;
      rounds = 3;
      record_prob = 0.1;
      seed = 9;
    }
  in
  let obs = Obs.create () in
  let engine = Serve.create ~obs (config ~jobs:2 ()) in
  let rounds = Serve_sim.job_stream cfg in
  List.iter
    (fun round -> ignore (Serve.handle_batch engine round : Json.t list))
    rounds;
  let stats = Serve.stats_json engine in
  let int group k =
    match Json.mem group stats with
    | Some j -> jok (Json.get_int k j)
    | None -> Alcotest.fail ("no stats group " ^ group)
  in
  let kinds = [ "profile-record"; "plan-request"; "stats"; "shutdown" ] in
  checki "job counts sum to clients x rounds" (40 * 3)
    (List.fold_left (fun acc k -> acc + int "jobs" k) 0 kinds);
  checki "no errors" 0 (int "jobs" "errors");
  let requests =
    List.length
      (List.filter
         (fun (j : Serve_proto.job) ->
           match j.Serve_proto.payload with
           | Serve_proto.Plan_request _ -> true
           | _ -> false)
         (List.concat rounds))
  in
  checki "hits + misses = plan requests" requests
    (int "plan" "hits" + int "plan" "misses");
  List.iter
    (fun k ->
      checki ("serve.jobs." ^ k ^ " counts the replay") (int "jobs" k)
        (counter obs ("serve.jobs." ^ k)))
    kinds;
  checkb "profiling happened" true (counter obs "profile.runs" > 0)

(* ---------------- line reader ---------------- *)

let read_all lr =
  let rec go acc =
    let more = Serve.Line_reader.read lr in
    let acc = List.rev_append (Serve.Line_reader.lines lr) acc in
    if more then go acc else List.rev acc
  in
  go []

let lines_t = Alcotest.(list (result string string))

let line_reader_one_byte_reads () =
  (* A pipe drained one byte at a time: every refill is a short read, so
     any line that survives proves the partial-line buffer reassembles
     across read boundaries. Also covers CRLF stripping and a final line
     with no trailing newline. *)
  let r, wfd = Unix.pipe () in
  let payload = "alpha\nbeta gamma\r\ndelta\n\nlast-no-newline" in
  let writer =
    Domain.spawn (fun () ->
        String.iter
          (fun c ->
            ignore (Unix.write_substring wfd (String.make 1 c) 0 1 : int))
          payload;
        Unix.close wfd)
  in
  let lr = Serve.Line_reader.create ~buf_size:1 r in
  let lines = read_all lr in
  Domain.join writer;
  Unix.close r;
  Alcotest.check lines_t "lines reassembled across one-byte reads"
    (List.map Result.ok
       [ "alpha"; "beta gamma"; "delta"; ""; "last-no-newline" ])
    lines

let line_reader_large_chunks () =
  (* The same payload through a large buffer: one refill may hold many
     lines, the pending buffer must hand them out one at a time. *)
  let r, wfd = Unix.pipe () in
  let payload = String.concat "\n" (List.init 50 string_of_int) ^ "\n" in
  let writer =
    Domain.spawn (fun () ->
        ignore
          (Unix.write_substring wfd payload 0 (String.length payload) : int);
        Unix.close wfd)
  in
  let lr = Serve.Line_reader.create r in
  let lines = read_all lr in
  Domain.join writer;
  Unix.close r;
  Alcotest.check lines_t "buffered lines split correctly"
    (List.init 50 (fun i -> Ok (string_of_int i)))
    lines

let line_reader_drops_over_long_lines () =
  (* Lines at the cap pass; longer ones, terminated or cut by EOF, come
     back as one error each, and the line after each is read whole.
     The 16 MiB line is dropped as it arrives: reading everything
     allocates less than that line. *)
  let cap = Serve_proto.max_line_bytes in
  let at_cap = String.make cap 'a' in
  let payload =
    String.concat "\n"
      [ "first"; at_cap; String.make (cap + 1) 'b'; "second";
        String.make (16 * cap) 'c'; "third"; String.make (cap + 7) 'd' ]
  in
  let r, wfd = Unix.pipe () in
  let writer =
    Domain.spawn (fun () ->
        let rec go off =
          if off < String.length payload then
            go (off + Unix.write_substring wfd payload off
                  (String.length payload - off))
        in
        go 0;
        Unix.close wfd)
  in
  let before = Gc.allocated_bytes () in
  let lines = read_all (Serve.Line_reader.create r) in
  let allocated = Gc.allocated_bytes () -. before in
  Domain.join writer;
  Unix.close r;
  let err =
    Error (Printf.sprintf "job line longer than %d bytes" cap)
  in
  Alcotest.check lines_t "over-long lines become errors"
    [ Ok "first"; Ok at_cap; err; Ok "second"; err; Ok "third"; err ]
    lines;
  checkb
    (Printf.sprintf "allocated %.0f bytes, under one 16 MiB line" allocated)
    true
    (allocated < float_of_int (16 * cap))

(* ---------------- the serve loop over a pipe ---------------- *)

(* [run_channels] answers a stream line for line as a fresh engine's
   [handle_line] does, whatever the framing: LF and CRLF lines, a blank
   line, unparsable lines (one with a recoverable id), jobs after a
   shutdown, and stats jobs that count the errors before them. The
   over-long line is the one exception: it gets the typed error. *)
let channels_match_handle_line () =
  let cap = Serve_proto.max_line_bytes in
  let over_long = String.make (cap + 1) 'x' in
  let lines =
    [
      ({|{"job":"profile-record","id":1,"workload":"ft","seed":3}|}, "\n");
      ({|{"job":"plan-request","id":2,"workload":"ft"}|}, "\r\n");
      ("", "\n");
      ({|{"job":"stats","id":3}|}, "\n");
      ("{not json", "\r\n");
      ({|{"job":"frobnicate","id":4}|}, "\n");
      (over_long, "\n");
      ({|{"job":"stats","id":5}|}, "\r\n");
      ({|{"job":"shutdown","id":6}|}, "\n");
      ({|{"job":"plan-request","id":7,"workload":"ft"}|}, "\n");
      ({|{"job":"stats","id":8}|}, "\n");
    ]
  in
  let payload = String.concat "" (List.map (fun (l, eol) -> l ^ eol) lines) in
  let expected =
    let engine = Serve.create (config ()) in
    List.map
      (fun (line, _) ->
        let r = Serve.handle_line engine line in
        Serve_proto.response_line
          (if line == over_long then
             Serve_proto.error_response ~id:None
               (Printf.sprintf "job line longer than %d bytes" cap)
           else r))
      lines
  in
  List.iter
    (fun jobs ->
      let r, wfd = Unix.pipe () in
      let writer =
        Domain.spawn (fun () ->
            let rec go off =
              if off < String.length payload then
                go
                  (off
                  + Unix.write_substring wfd payload off
                      (String.length payload - off))
            in
            go 0;
            Unix.close wfd)
      in
      let out = Filename.temp_file "halo-serve-out" ".jsonl" in
      let oc = open_out_bin out in
      let engine = Serve.create (config ~jobs ()) in
      let n = Serve.run_channels engine (Unix.in_channel_of_descr r) oc in
      close_out oc;
      Domain.join writer;
      Unix.close r;
      let got = In_channel.with_open_bin out In_channel.input_lines in
      Sys.remove out;
      checki (Printf.sprintf "one response per line at --jobs %d" jobs)
        (List.length lines) n;
      Alcotest.check
        Alcotest.(list string)
        (Printf.sprintf "responses equal handle_line's at --jobs %d" jobs)
        expected got)
    [ 1; 2 ]

(* ---------------- aggregate persistence ---------------- *)

let aggregates_survive_restart () =
  let dir = tmp_dir () in
  (* First engine: fold fleet mass, then persist on the way out (the
     run_channels/run_socket epilogues call save_aggregates; here we
     call it directly). *)
  let a = Serve.create (config ~cache:(Plan_cache.create dir) ()) in
  ignore
    (Serve.handle_batch a [ record 1 "ft" 3 1.0; record 2 "ft" 4 2.5 ]
      : Json.t list);
  checki "two aggregates saved is one artifact" 1 (Serve.save_aggregates a);
  let stats_of engine =
    let j = Serve.stats_json engine in
    match Json.get_list "programs" j with
    | Ok [ one ] ->
        ( (match Json.get_int "profiles" one with
          | Ok n -> n
          | Error e -> Alcotest.fail e),
          match Json.get_float "mass" one with
          | Ok m -> m
          | Error e -> Alcotest.fail e )
    | Ok l ->
        Alcotest.fail
          (Printf.sprintf "expected exactly one aggregate, got %d"
             (List.length l))
    | Error e -> Alcotest.fail e
  in
  let profiles_a, mass_a = stats_of a in
  checki "first engine folded two profiles" 2 profiles_a;
  (* Second engine, same cache dir: adopts the saved aggregate without
     profiling, and keeps counting from the restored mass. *)
  let obs = Obs.create () in
  let b = Serve.create ~obs (config ~cache:(Plan_cache.create dir) ()) in
  checki "aggregate reloaded" 1 (counter obs "serve.aggregates.loaded");
  let profiles_b, mass_b = stats_of b in
  checki "profile count restored" profiles_a profiles_b;
  checkb "mass restored" true (Float.equal mass_a mass_b);
  checki "restore never profiles" 0 (counter obs "profile.runs");
  ignore (Serve.handle_batch b [ record 3 "ft" 5 1.0 ] : Json.t list);
  let profiles_b2, mass_b2 = stats_of b in
  checki "new records keep counting" (profiles_a + 1) profiles_b2;
  checkb "new mass adds to the restored mass" true
    (Float.equal (mass_a +. 1.0) mass_b2);
  (* No cache configured: persistence is a no-op, not an error. *)
  let c = Serve.create (config ()) in
  ignore (Serve.handle_batch c [ record 1 "ft" 3 1.0 ] : Json.t list);
  checki "no cache, nothing saved" 0 (Serve.save_aggregates c)

(* ---------------- socket ---------------- *)

let socket_round_trip () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "halo-serve-%d.sock" (Unix.getpid ()))
  in
  let engine = Serve.create (config ()) in
  let server = Domain.spawn (fun () -> Serve.run_socket engine ~path) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect sock (Unix.ADDR_UNIX path);
  let ic = Unix.in_channel_of_descr sock in
  let oc = Unix.out_channel_of_descr sock in
  let ask line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    input_line ic
  in
  let stats_resp = ask {|{"job":"stats","id":1}|} in
  checkb "stats answered over the socket" true
    (Json.get_bool "ok" (Result.get_ok (Json.of_string stats_resp)) = Ok true);
  let bye = ask {|{"job":"shutdown","id":2}|} in
  checkb "shutdown acknowledged" true
    (Json.get_bool "ok" (Result.get_ok (Json.of_string bye)) = Ok true);
  (try Unix.close sock with Unix.Unix_error _ -> ());
  let served = Domain.join server in
  checki "two responses served" 2 served;
  checkb "socket unlinked on exit" true (not (Sys.file_exists path))

let socket_survives_hostile_clients () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "halo-serve-hostile-%d.sock" (Unix.getpid ()))
  in
  let engine = Serve.create (config ()) in
  let server = Domain.spawn (fun () -> Serve.run_socket engine ~path) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  let connect () =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect sock (Unix.ADDR_UNIX path);
    (sock, Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock)
  in
  (* Client 1 sends two jobs and hangs up without reading: the daemon's
     response write fails, which must close only this connection. *)
  let sock1, _, oc1 = connect () in
  output_string oc1
    {|{"job":"plan-request","id":1,"workload":"ft"}
{"job":"stats","id":2}
|};
  flush oc1;
  Unix.close sock1;
  (* Client 2 is served after it: an over-long line first, then jobs. *)
  let sock2, ic, oc = connect () in
  let ask line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    Result.get_ok (Json.of_string (input_line ic))
  in
  let big = ask (String.make (Serve_proto.max_line_bytes + 1) 'x') in
  checkb "an over-long line is an error response" true
    (Json.get_bool "ok" big = Ok false);
  checkb "stats answered after it" true
    (Json.get_bool "ok" (ask {|{"job":"stats","id":3}|}) = Ok true);
  checkb "shutdown acknowledged" true
    (Json.get_bool "ok" (ask {|{"job":"shutdown","id":4}|}) = Ok true);
  (try Unix.close sock2 with Unix.Unix_error _ -> ());
  let served = Domain.join server in
  checkb "the daemon returned" true (served >= 3);
  checkb "socket unlinked on exit" true (not (Sys.file_exists path))

(* A client holding an unterminated line delays nobody: client A sends
   half a job and stays connected while client B's stats and shutdown
   are answered. B's socket has a receive timeout, so a daemon that
   blocks on A fails the test instead of hanging it; A closes before the
   join, which frees such a daemon to finish B's queued jobs. *)
let socket_partial_line_stalls_nobody () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "halo-serve-partial-%d.sock" (Unix.getpid ()))
  in
  let engine = Serve.create (config ()) in
  let server = Domain.spawn (fun () -> Serve.run_socket engine ~path) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  let connect () =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect sock (Unix.ADDR_UNIX path);
    sock
  in
  let a = connect () in
  let half = {|{"job":"stats"|} in
  ignore (Unix.write_substring a half 0 (String.length half) : int);
  Unix.sleepf 0.1;
  let b = connect () in
  Unix.setsockopt_float b Unix.SO_RCVTIMEO 2.0;
  let ic = Unix.in_channel_of_descr b and oc = Unix.out_channel_of_descr b in
  let ask line =
    output_string oc line;
    output_char oc '\n';
    flush oc;
    match input_line ic with
    | resp -> Json.get_bool "ok" (Result.get_ok (Json.of_string resp)) = Ok true
    | exception (Sys_error _ | Sys_blocked_io | End_of_file) -> false
  in
  let t0 = Unix.gettimeofday () in
  let stats_ok = ask {|{"job":"stats","id":1}|} in
  let shutdown_ok = ask {|{"job":"shutdown","id":2}|} in
  let elapsed = Unix.gettimeofday () -. t0 in
  Unix.close a;
  let served = Domain.join server in
  (try Unix.close b with Unix.Unix_error _ -> ());
  checkb "stats answered while A holds a partial line" true stats_ok;
  checkb "shutdown answered while A holds a partial line" true shutdown_ok;
  checkb (Printf.sprintf "answered within 2 s (%.2f s)" elapsed) true
    (elapsed < 2.0);
  checki "two responses served" 2 served;
  checkb "socket unlinked on exit" true (not (Sys.file_exists path))

(* At [Serve_proto.max_connections] open clients the daemon stops
   accepting: one more client waits unanswered in the backlog until an
   open one closes, and is then served. *)
let socket_connection_cap () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "halo-serve-cap-%d.sock" (Unix.getpid ()))
  in
  let engine = Serve.create (config ()) in
  let server = Domain.spawn (fun () -> Serve.run_socket engine ~path) in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Sys.file_exists path)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  let client timeout =
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect sock (Unix.ADDR_UNIX path);
    Unix.setsockopt_float sock Unix.SO_RCVTIMEO timeout;
    (sock, Unix.in_channel_of_descr sock, Unix.out_channel_of_descr sock)
  in
  let send (_, _, oc) line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let answered (_, ic, _) =
    match input_line ic with
    | resp -> Json.get_bool "ok" (Result.get_ok (Json.of_string resp)) = Ok true
    | exception (Sys_error _ | Sys_blocked_io | End_of_file) -> false
  in
  let stats = {|{"job":"stats","id":1}|} in
  let open_clients =
    List.init Serve_proto.max_connections (fun _ ->
        let c = client 2.0 in
        send c stats;
        c)
  in
  checkb "every client under the cap is served" true
    (List.for_all answered open_clients);
  let extra = client 0.3 in
  send extra stats;
  checkb "a client over the cap waits" false (answered extra);
  let first, _, _ = List.hd open_clients in
  Unix.close first;
  Unix.setsockopt_float (let s, _, _ = extra in s) Unix.SO_RCVTIMEO 2.0;
  checkb "it is served once a client closes" true (answered extra);
  send extra {|{"job":"shutdown","id":2}|};
  checkb "shutdown acknowledged" true (answered extra);
  ignore (Domain.join server : int);
  List.iter
    (fun (s, _, _) -> try Unix.close s with Unix.Unix_error _ -> ())
    (extra :: List.tl open_clients)

(* The socket's hostile-input contract: one valid line per job form,
   with a few byte mutations applied, parses to [Ok] or [Error] and
   raises nothing else. *)
let proto_seed_lines =
  List.map
    (fun j -> Json.to_string ~pretty:false (Serve_proto.job_to_json j))
    [
      record 1 "ft" 3 1.0;
      {
        Serve_proto.id = 2;
        payload =
          Serve_proto.Profile_record
            { workload = "health"; seed = 9; weight = 2.5; scale = Workload.Ref };
      };
      {
        Serve_proto.id = 3;
        payload = Serve_proto.Profile_load { path = "ft.prof.bin"; weight = 0.5 };
      };
      request 4 "omnetpp";
      stats 5;
      shutdown 6;
    ]

let proto_mutation_prop =
  QCheck2.Test.make ~name:"proto: job lines survive byte mutations" ~count:1000
    ~print:(fun (k, muts) ->
      Printf.sprintf "line %d: %s" k (String.concat " " (List.map Byte_mutation.show muts)))
    QCheck2.Gen.(
      pair (int_bound (List.length proto_seed_lines - 1)) (list_size (int_range 1 3) Byte_mutation.gen))
    (fun (k, muts) ->
      let line = List.fold_left Byte_mutation.mutate (List.nth proto_seed_lines k) muts in
      match Serve_proto.job_of_line line with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck2.Test.fail_reportf "job_of_line raised %s" (Printexc.to_string e))

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  let slow name f = Alcotest.test_case name `Slow f in
  [
    tc "proto: round-trips" proto_round_trips;
    tc "proto: defaults" proto_defaults;
    tc "proto: rejects bad jobs" proto_rejects;
    slow "batch: deterministic across --jobs" batch_deterministic_across_jobs;
    slow "staleness: eager invalidation, lazy re-derive" staleness_policy;
    slow "cache: warm engine never profiles" warm_cache_serves_without_profiling;
    tc "shutdown: later jobs refused" shutdown_semantics;
    tc "lines: parse failures become error responses" handle_line_recovers;
    tc "lines: a hostile artifact is an error response" handle_line_hostile_artifact;
    tc "lines: an over-budget profile still plans" handle_line_over_budget_profile;
    tc "sim: schedule is deterministic" sim_stream_deterministic;
    slow "sim: small fleet smoke" sim_run_smoke;
    tc "line reader: one-byte short reads" line_reader_one_byte_reads;
    tc "line reader: buffered chunks" line_reader_large_chunks;
    tc "line reader: over-long lines are dropped" line_reader_drops_over_long_lines;
    slow "aggregates: survive a restart" aggregates_survive_restart;
    slow "socket: round-trip and shutdown" socket_round_trip;
    slow "socket: survives a hang-up and an over-long line"
      socket_survives_hostile_clients;
    slow "socket: a partial line stalls no other client"
      socket_partial_line_stalls_nobody;
    slow "socket: clients over the connection cap wait" socket_connection_cap;
    slow "loop: stdin responses equal handle_line's" channels_match_handle_line;
    QCheck_alcotest.to_alcotest proto_mutation_prop;
  ]
