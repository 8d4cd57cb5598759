type config = {
  clients : int;
  rounds : int;
  record_prob : float;
  drift : float;
  seed : int;
}

let default_config =
  {
    clients = 1000;
    rounds = 20;
    record_prob = 0.02;
    drift = 0.25;
    seed = 1;
  }

let weights = [| 0.5; 1.0; 2.0; 4.0 |]

(* The fleet's traffic shape is the shared {!Schedule.drifting} model —
   one schedule phase per round, [clients] jobs per tick — so the
   simulator and the lib/traffic drift study exercise one traffic
   definition. The schedule fixes each round's workload mix and per-job
   seeds; this layer only decides which jobs are profile uploads. *)
let job_stream (cfg : config) =
  let sched =
    Schedule.drifting ~ticks_per_phase:1
      ~rate:(float_of_int cfg.clients)
      ~phases:cfg.rounds ~drift:cfg.drift ()
  in
  let events = Array.of_list (Schedule.events ~seed:cfg.seed sched) in
  let rng = Rng.create ~seed:cfg.seed in
  let next_id = ref 0 in
  let rounds = Array.make cfg.rounds [] in
  Array.iter
    (fun e ->
      incr next_id;
      let payload =
        if Rng.float rng 1.0 < cfg.record_prob then
          Serve_proto.Profile_record
            {
              workload = e.Schedule.ev_workload;
              seed = e.Schedule.ev_seed;
              weight = Rng.choose rng weights;
              scale = Workload.Test;
            }
        else Serve_proto.Plan_request { workload = e.Schedule.ev_workload }
      in
      let job = { Serve_proto.id = !next_id; payload } in
      rounds.(e.Schedule.ev_phase) <- job :: rounds.(e.Schedule.ev_phase))
    events;
  Array.to_list (Array.map List.rev rounds)
