let default_jobs () = Domain.recommended_domain_count ()

(* The process-wide core budget: cores held by live pool workers and
   stream helpers, against [recommended_domain_count ()] less the calling
   domain's own. *)
let reserved = Atomic.make 0

let spare_cores () = default_jobs () - 1 - Atomic.get reserved
let reserve n = Atomic.fetch_and_add reserved n + 1
let release n = ignore (Atomic.fetch_and_add reserved (-n) : int)

let rec claim_spare () =
  let r = Atomic.get reserved in
  if default_jobs () - 1 - r < 1 then None
  else if Atomic.compare_and_set reserved r (r + 1) then Some (r + 1)
  else claim_spare ()

(* All pool timing reads the process-wide monotonic clock, so per-worker
   busy/queue-wait numbers and span timestamps share one timeline. *)
let now = Obs_clock.now

(* A queued task: runs on some worker, receives that worker's private
   observability context, and must not raise (futures capture). The
   enqueue timestamp feeds the queue-wait histogram. *)
type job = { run : Obs.t option -> unit; enqueued_s : float }

type worker = {
  w_id : int;
  w_obs : Obs.t option;
  (* w_tasks/w_busy_s are written only by the owning worker domain and
     read after the join in [shutdown]; Domain.join orders the accesses. *)
  mutable w_tasks : int;
  mutable w_busy_s : float;
  mutable w_domain : unit Domain.t option;
}

type pool = {
  p_name : string;
  p_obs : Obs.t option;
  p_sequential : bool; (* jobs = 1: run tasks inline, spawn nothing *)
  p_queue : job Queue.t;
  p_mutex : Mutex.t;
  p_work : Condition.t;
  mutable p_closed : bool;
  mutable p_submitted : int;
  mutable p_joined : bool;
  p_workers : worker array;
}

let jobs p = Array.length p.p_workers

type 'a state =
  | Pending
  | Done of 'a
  | Failed of exn * Printexc.raw_backtrace

type 'a future = {
  f_mutex : Mutex.t;
  f_cond : Condition.t;
  mutable f_state : 'a state;
}

let run_job p w job =
  let t0 = now () in
  Obs.observe w.w_obs (p.p_name ^ ".queue_wait_s") (t0 -. job.enqueued_s);
  job.run w.w_obs;
  w.w_tasks <- w.w_tasks + 1;
  let dt = now () -. t0 in
  Obs.observe w.w_obs (p.p_name ^ ".task_s") dt;
  w.w_busy_s <- w.w_busy_s +. dt

let rec worker_loop p w =
  Mutex.lock p.p_mutex;
  while Queue.is_empty p.p_queue && not p.p_closed do
    Condition.wait p.p_work p.p_mutex
  done;
  match Queue.take_opt p.p_queue with
  | None ->
      (* Closed and drained. *)
      Mutex.unlock p.p_mutex
  | Some job ->
      Mutex.unlock p.p_mutex;
      run_job p w job;
      worker_loop p w

let create ?obs ?(name = "par") ~jobs () =
  let jobs = max 1 jobs in
  let workers =
    Array.init jobs (fun i ->
        {
          w_id = i;
          (* Workers share the parent's epoch and get their own track, so
             their spans land on per-domain lanes of the same timeline;
             when the parent traces, a worker keeps its events for
             [shutdown]'s adopt. The inline worker of a [jobs = 1] pool
             runs on the calling domain and holds no core, so it keeps the
             caller's track: lane 1 is then free for a helper it claims. *)
          w_obs =
            Option.map
              (fun parent ->
                Obs.child parent
                  ~track:(if jobs = 1 then Obs.track parent else i + 1))
              obs;
          w_tasks = 0;
          w_busy_s = 0.0;
          w_domain = None;
        })
  in
  let p =
    {
      p_name = name;
      p_obs = obs;
      p_sequential = jobs = 1;
      p_queue = Queue.create ();
      p_mutex = Mutex.create ();
      p_work = Condition.create ();
      p_closed = false;
      p_submitted = 0;
      p_joined = false;
      p_workers = workers;
    }
  in
  if not p.p_sequential then begin
    ignore (reserve jobs : int);
    Array.iter
      (fun w -> w.w_domain <- Some (Domain.spawn (fun () -> worker_loop p w)))
      workers
  end;
  p

let submit p f =
  let fut =
    { f_mutex = Mutex.create (); f_cond = Condition.create (); f_state = Pending }
  in
  let run wobs =
    let result =
      try Done (f wobs)
      with e -> Failed (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock fut.f_mutex;
    fut.f_state <- result;
    Condition.broadcast fut.f_cond;
    Mutex.unlock fut.f_mutex
  in
  if p.p_joined then invalid_arg "Par.submit: pool is shut down";
  p.p_submitted <- p.p_submitted + 1;
  if p.p_sequential then run_job p p.p_workers.(0) { run; enqueued_s = now () }
  else begin
    Mutex.lock p.p_mutex;
    if p.p_closed then begin
      Mutex.unlock p.p_mutex;
      invalid_arg "Par.submit: pool is shut down"
    end;
    Queue.push { run; enqueued_s = now () } p.p_queue;
    Condition.signal p.p_work;
    Mutex.unlock p.p_mutex
  end;
  fut

let await fut =
  (* No polymorphic equality here: results may hold closures. *)
  let pending () = match fut.f_state with Pending -> true | _ -> false in
  Mutex.lock fut.f_mutex;
  while pending () do
    Condition.wait fut.f_cond fut.f_mutex
  done;
  let state = fut.f_state in
  Mutex.unlock fut.f_mutex;
  match state with
  | Done v -> v
  | Failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | Pending -> assert false

let shutdown p =
  if not p.p_joined then begin
    p.p_joined <- true;
    if not p.p_sequential then begin
      Mutex.lock p.p_mutex;
      p.p_closed <- true;
      Condition.broadcast p.p_work;
      Mutex.unlock p.p_mutex;
      Array.iter (fun w -> Option.iter Domain.join w.w_domain) p.p_workers;
      release (Array.length p.p_workers)
    end;
    match p.p_obs with
    | None -> ()
    | Some _ ->
        (* Workers are quiescent: fold their registries into the parent in
           worker order (deterministic), graft their span trees onto the
           parent's (per-domain tracks), then account for the fan-out. *)
        Array.iter
          (fun w ->
            Option.iter
              (fun wobs ->
                Option.iter
                  (fun parent ->
                    Metrics.merge ~into:(Obs.metrics parent) (Obs.metrics wobs);
                    Obs.adopt parent ~from:wobs)
                  p.p_obs;
                Obs.event p.p_obs
                  ~name:(p.p_name ^ ".worker")
                  ~attrs:
                    [
                      ("worker", Json.Int w.w_id);
                      ("tasks", Json.Int w.w_tasks);
                    ]
                  w.w_busy_s)
              w.w_obs)
          p.p_workers;
        Obs.count p.p_obs (p.p_name ^ ".tasks") p.p_submitted;
        Obs.set_gauge p.p_obs
          (p.p_name ^ ".workers")
          (float_of_int (Array.length p.p_workers))
  end

let map_obs ?obs ?(name = "par") ?jobs f xs =
  match xs with
  | [] -> []
  | _ ->
      let n = List.length xs in
      let jobs =
        min (match jobs with Some j -> max 1 j | None -> default_jobs ()) n
      in
      Obs.span obs (name ^ ".map") ~attrs:[ ("tasks", Json.Int n) ] (fun () ->
          let p = create ?obs ~name ~jobs () in
          Fun.protect
            ~finally:(fun () -> shutdown p)
            (fun () ->
              let futs =
                List.rev
                  (List.fold_left
                     (fun acc x -> submit p (fun wobs -> f wobs x) :: acc)
                     [] xs)
              in
              (* Await in submission order: results come back in input
                 order and the first failure (in input order) wins. *)
              List.rev
                (List.fold_left (fun acc fut -> await fut :: acc) [] futs)))

let map ?obs ?name ?jobs f xs = map_obs ?obs ?name ?jobs (fun _ x -> f x) xs
