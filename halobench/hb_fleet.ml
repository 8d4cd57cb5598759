(* fleet-serve: one closed-loop client replays Serve_sim.job_stream
   (200 clients x 10 rounds, record_prob 0.02, drift 0.25) line by line
   through Serve.handle_line - the socket daemon's unit of work - against
   a fresh plan-cache directory; each pass ends with
   Serve.save_aggregates. Profiler runs (profile-record jobs and cold
   plans) dominate; the cache simulator does no work here. *)

open Hb_common

let config =
  {
    Serve_sim.default_config with
    Serve_sim.clients = 200;
    rounds = 10;
    record_prob = 0.02;
    drift = 0.25;
  }

type job = { line : string; kind : string }

(* The stream's composition - which jobs upload a profile, of which
   workload, with what weight - is Serve_sim's at its default seed; the
   run's seed re-draws every upload's program input seed. Which uploads
   the fleet draws moves a pass by up to 2x (their profiler runs are most
   of its time), so letting the seed pick them would bury any layer's
   change under input noise. *)
let job_lines ~seed =
  let rng = Rng.create ~seed in
  List.concat (Serve_sim.job_stream config)
  |> List.map (fun (j : Serve_proto.job) ->
         let j =
           match j.Serve_proto.payload with
           | Serve_proto.Profile_record r ->
               {
                 j with
                 Serve_proto.payload =
                   Serve_proto.Profile_record { r with seed = 1 + Rng.int rng 1_000_000 };
               }
           | _ -> j
         in
         {
           line = Json.to_string ~pretty:false (Serve_proto.job_to_json j);
           kind = Serve_proto.job_name j.Serve_proto.payload;
         })

type daemon = { serve : Serve.t; dir : string }

(* Everything a pass needs before its first job: the job lines, a fresh
   cache directory, the plan cache and the daemon over it. *)
let setup ~seed ~name =
  let jobs = job_lines ~seed in
  let dir = fresh_dir name in
  let cache = Plan_cache.create dir in
  let serve = Serve.create { Serve.default_config with Serve.jobs = 1; cache = Some cache } in
  (jobs, { serve; dir })

type pass = {
  latencies : (string * float) list;  (** (job kind, seconds) in stream order *)
  errors : int;
  digest : string;  (** Over the response stream. *)
  parse_s : float;  (** Total Serve_proto.job_of_line time (traced pass only). *)
  stats : Json.t;
}

let run_pass ?obs d jobs =
  let errors = ref 0 in
  let parse_s = ref 0.0 in
  let answered =
    List.map
      (fun j ->
        if obs <> None then begin
          let t0 = now_ns () in
          Obs.span obs "Serve_proto.job_of_line" (fun () ->
              ignore (Serve_proto.job_of_line j.line : (Serve_proto.job, string) result));
          parse_s := !parse_s +. since_s t0
        end;
        let t0 = now_ns () in
        let resp =
          Obs.span obs "Serve.handle_line"
            ~attrs:[ ("kind", Json.String j.kind) ]
            (fun () -> Serve.handle_line d.serve j.line)
        in
        let s = since_s t0 in
        (match Json.get_bool "ok" resp with Ok true -> () | _ -> incr errors);
        ((j.kind, s), Json.to_string ~pretty:false resp))
      jobs
  in
  ignore (Obs.span obs "Serve.save_aggregates" (fun () -> Serve.save_aggregates d.serve) : int);
  {
    latencies = List.map fst answered;
    errors = !errors;
    digest = digest_of_strings (List.map snd answered);
    parse_s = !parse_s;
    stats = Serve.stats_json d.serve;
  }

let stat p path =
  let rec go j = function
    | [] -> ( match j with Json.Int i -> i | _ -> 0)
    | k :: rest -> ( match Json.mem k j with Some v -> go v rest | None -> 0)
  in
  go p.stats path

let plan_hit_rate p =
  float_of_int (stat p [ "plan"; "hits" ])
  /. float_of_int (max 1 (stat p [ "jobs"; "plan-request" ]))

let kind_latencies p kind =
  List.filter_map (fun (k, s) -> if k = kind then Some s else None) p.latencies

(* Store layer on what the fleet left on disk: its per-program aggregates
   and plan entries. Each figure is the median over [trials] rounds;
   the p25/p75 of the rounds ride along in the run record. *)
let store_layer ~trials d =
  let fail e = failwith ("store layer: " ^ Store.error_to_string e) in
  let ok = function Ok v -> v | Error e -> fail e in
  let in_dir sub =
    let dir = Filename.concat d.dir sub in
    if Sys.file_exists dir then
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.filter (fun f -> Filename.check_suffix f ".bin")
      |> List.map (Filename.concat dir)
    else []
  in
  let aggregates = in_dir "aggregates" in
  let plans =
    List.filter (fun f -> Filename.check_suffix f ".plan.bin") (in_dir ".")
  in
  if aggregates = [] || plans = [] then failwith "store layer: the fleet left no aggregates or plans";
  let out = fresh_dir "store-out" in
  let tmp i = Filename.concat out (Printf.sprintf "%d.bin" i) in
  let rounds f = List.init trials (fun _ -> snd (timed f)) in
  let decoded = List.map (fun p -> ok (Store.read_profile p)) aggregates in
  let decoded_plans = List.map (fun p -> ok (Store.read_plan p)) plans in
  let decode_s = rounds (fun () -> List.iter (fun p -> ignore (ok (Store.read_profile p))) aggregates) in
  let decode_plan_s = rounds (fun () -> List.iter (fun p -> ignore (ok (Store.read_plan p))) plans) in
  let encode () =
    List.iteri
      (fun i (a : Store.profile_artifact) ->
        ok
          (Store.write_profile ~format:Store.V2 ~created:0.0 ~path:(tmp i)
             ~program_digest:a.Store.header.Store.program_digest ~config:a.Store.config
             a.Store.result))
      decoded;
    List.iteri
      (fun i ((h : Store.header), plan) ->
        ok
          (Store.write_plan ~format:Store.V2 ~created:0.0
             ~path:(tmp (1000 + i))
             ~program_digest:h.Store.program_digest plan))
      decoded_plans
  in
  let encode_s = rounds encode in
  let bytes =
    Array.fold_left
      (fun acc f -> acc + (Unix.stat (Filename.concat out f)).Unix.st_size)
      0 (Sys.readdir out)
  in
  let copies = 4 in
  let merge () =
    List.iter
      (fun a -> ignore (ok (Store.merge_profiles (List.init copies (fun _ -> (a, 1.0))))))
      decoded
  in
  let merge_s = rounds merge in
  rm_rf out;
  let rate n times = List.map (fun s -> float_of_int n /. s) times in
  let mb = float_of_int bytes /. 1048576.0 in
  let enc = List.map (fun s -> mb /. s) encode_s in
  let dec = rate (List.length aggregates) decode_s in
  let decp = rate (List.length plans) decode_plan_s in
  let mer = rate (copies * List.length decoded) merge_s in
  let q xs = Json.Obj [ ("p25", Json.Float (percentile xs 0.25)); ("p50", Json.Float (median xs)); ("p75", Json.Float (percentile xs 0.75)) ] in
  ( [
      ("store.encode_mb_per_s", median enc);
      ("store.decode_profiles_per_s", median dec);
      ("store.decode_plans_per_s", median decp);
      ("store.merge_profiles_per_s", median mer);
    ],
    Json.Obj
      [
        ("trials", Json.Int trials);
        ("aggregates", Json.Int (List.length aggregates));
        ("plans", Json.Int (List.length plans));
        ("encoded_bytes", Json.Int bytes);
        ("encode_mb_per_s", q enc);
        ("decode_profiles_per_s", q dec);
        ("decode_plans_per_s", q decp);
        ("merge_profiles_per_s", q mer);
      ] )

let config_record =
  let c = config in
  [
    ( "config",
      Json.Obj
        [
          ("clients", Json.Int c.Serve_sim.clients);
          ("rounds", Json.Int c.Serve_sim.rounds);
          ("record_prob", Json.Float c.Serve_sim.record_prob);
          ("drift", Json.Float c.Serve_sim.drift);
          ("serve_jobs", Json.Int 1);
          ("staleness_weight", Json.Float Serve.default_staleness_weight);
        ] );
  ]
