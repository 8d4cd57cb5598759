(* Tests for halo_par: pool semantics, deterministic result ordering,
   exception propagation, and merging of per-worker metric registries. *)

let check = Alcotest.check
let checki = check Alcotest.int
let checkb = check Alcotest.bool
let checkf msg = check (Alcotest.float 1e-9) msg
let checkil msg = check (Alcotest.list Alcotest.int) msg

(* ---------------- Par.map ---------------- *)

let map_ordering () =
  let xs = List.init 100 Fun.id in
  checkil "results in input order"
    (List.map (fun x -> x * x) xs)
    (Par.map ~jobs:4 (fun x -> x * x) xs)

let map_jobs_independent () =
  let xs = List.init 37 (fun k -> k - 5) in
  let f x = (x * 1234567) lxor (x lsl 3) in
  checkil "jobs:1 = jobs:8" (Par.map ~jobs:1 f xs) (Par.map ~jobs:8 f xs)

let map_edge_shapes () =
  checkil "empty input" [] (Par.map ~jobs:4 Fun.id []);
  checkil "singleton input" [ 42 ] (Par.map ~jobs:4 Fun.id [ 42 ]);
  (* More workers than tasks: the pool is capped at the task count. *)
  checkil "jobs > tasks" [ 2; 4 ] (Par.map ~jobs:16 (fun x -> 2 * x) [ 1; 2 ])

exception Boom of int

let map_exception_propagation () =
  let raised =
    try
      ignore
        (Par.map ~jobs:3
           (fun x -> if x = 5 then raise (Boom x) else x)
           (List.init 20 Fun.id)
          : int list);
      None
    with Boom n -> Some n
  in
  check (Alcotest.option Alcotest.int) "task exception re-raised at await"
    (Some 5) raised

let map_first_failure_wins () =
  (* 3, 7, 11, 15 all raise; awaiting in submission order means the
     earliest submitted failure is the one the caller sees. *)
  let raised =
    try
      ignore
        (Par.map ~jobs:4
           (fun x -> if x mod 4 = 3 then raise (Boom x) else x)
           (List.init 16 Fun.id)
          : int list);
      None
    with Boom n -> Some n
  in
  check (Alcotest.option Alcotest.int) "first failure in input order"
    (Some 3) raised

let map_exception_sequential () =
  let raised =
    try
      ignore (Par.map ~jobs:1 (fun x -> raise (Boom x)) [ 9 ] : int list);
      None
    with Boom n -> Some n
  in
  check (Alcotest.option Alcotest.int) "inline path re-raises too" (Some 9)
    raised

(* ---------------- pools and futures ---------------- *)

let pool_submit_await () =
  let p = Par.create ~jobs:3 () in
  checki "worker count" 3 (Par.jobs p);
  let futs = List.init 10 (fun k -> Par.submit p (fun _ -> 2 * k)) in
  let vals = List.map Par.await futs in
  Par.shutdown p;
  checkil "futures resolve in order" (List.init 10 (fun k -> 2 * k)) vals

let pool_shutdown_idempotent_and_closed () =
  let p = Par.create ~jobs:2 () in
  let fut = Par.submit p (fun _ -> 1) in
  checki "value" 1 (Par.await fut);
  Par.shutdown p;
  Par.shutdown p;
  Alcotest.check_raises "submit after shutdown"
    (Invalid_argument "Par.submit: pool is shut down") (fun () ->
      ignore (Par.submit p (fun _ -> 0) : int Par.future))

(* ---------------- per-worker observability ---------------- *)

let map_obs_merges_worker_registries () =
  let obs = Obs.create () in
  let xs = List.init 25 Fun.id in
  let ys =
    Par.map_obs ~obs ~name:"t" ~jobs:4
      (fun wobs x ->
        Obs.count wobs "t.work" 1;
        Obs.observe wobs "t.size" (float_of_int x);
        x)
      xs
  in
  checkil "payload unaffected" xs ys;
  let snap = Metrics.snapshot (Obs.metrics obs) in
  (match List.assoc "t.work" snap with
  | Metrics.Counter n -> checki "worker counters merged" 25 n
  | _ -> Alcotest.fail "t.work should be a counter");
  (match List.assoc "t.size" snap with
  | Metrics.Histogram { count; max; _ } ->
      checki "worker histograms merged" 25 count;
      checkf "histogram max survives merge" 24.0 max
  | _ -> Alcotest.fail "t.size should be a histogram");
  (match List.assoc "t.tasks" snap with
  | Metrics.Counter n -> checki "par.tasks accounting" 25 n
  | _ -> Alcotest.fail "t.tasks should be a counter");
  match List.assoc "t.workers" snap with
  | Metrics.Gauge { last; _ } -> checkf "par.workers gauge" 4.0 last
  | _ -> Alcotest.fail "t.workers should be a gauge"

let map_obs_tracks_and_latency () =
  (* Every task leaves a queue-wait and a wall-time sample in its worker's
     registry, and worker-side spans are grafted onto the parent context
     on per-domain tracks. *)
  let obs = Obs.create () in
  let xs = List.init 12 Fun.id in
  ignore
    (Par.map_obs ~obs ~name:"t" ~jobs:3
       (fun wobs x -> Obs.span wobs "cell" (fun () -> x * x))
       xs
      : int list);
  let snap = Metrics.snapshot (Obs.metrics obs) in
  (match List.assoc "t.queue_wait_s" snap with
  | Metrics.Histogram { count; min; _ } ->
      checki "one queue-wait sample per task" 12 count;
      checkb "waits are non-negative" true (min >= 0.0)
  | _ -> Alcotest.fail "t.queue_wait_s should be a histogram");
  (match List.assoc "t.task_s" snap with
  | Metrics.Histogram { count; _ } ->
      checki "one wall-time sample per task" 12 count
  | _ -> Alcotest.fail "t.task_s should be a histogram");
  let cells =
    List.filter (fun (sp : Obs.span) -> sp.Obs.name = "cell") (Obs.spans obs)
  in
  checki "worker spans adopted" 12 (List.length cells);
  checkb "adopted spans sit on per-domain tracks" true
    (List.for_all
       (fun (sp : Obs.span) -> sp.Obs.track >= 1 && sp.Obs.track <= 3)
       cells);
  checkb "all closed" true
    (List.for_all (fun (sp : Obs.span) -> sp.Obs.closed) (Obs.spans obs))

let map_obs_jobs_invariant () =
  (* The acceptance bar for mergeable sketches: a deterministic workload
     produces bit-identical merged histogram/counter summaries at any
     worker count (integer-valued observations keep the float sums
     exact). Wall-clock metrics (queue waits, task times, alloc rate) are
     excluded — those legitimately vary. *)
  let run jobs =
    let obs = Obs.create () in
    ignore
      (Par.map_obs ~obs ~name:"t" ~jobs
         (fun wobs x ->
           Obs.count wobs "t.work" 1;
           Obs.observe wobs "t.size" (float_of_int (x mod 17));
           x)
         (List.init 40 Fun.id)
        : int list);
    let snap = Metrics.snapshot (Obs.metrics obs) in
    ( Json.to_string ~pretty:false
        (Metrics.value_to_json (List.assoc "t.size" snap)),
      Json.to_string ~pretty:false
        (Metrics.value_to_json (List.assoc "t.work" snap)) )
  in
  let s1, w1 = run 1 in
  let s4, w4 = run 4 in
  check Alcotest.string "histogram summary is jobs-invariant" s1 s4;
  check Alcotest.string "counter summary is jobs-invariant" w1 w4

let map_obs_without_parent_is_silent () =
  (* No parent context: workers get no private context either, and the
     disabled path is exactly the plain map. Workers only report what they
     saw; the checks run here, since alcotest's output is not domain-safe. *)
  let seen =
    Par.map_obs ~jobs:2 (fun wobs x -> (x, Obs.enabled wobs)) [ 1; 2; 3 ]
  in
  checkil "no obs" [ 1; 2; 3 ] (List.map fst seen);
  List.iter (fun (_, on) -> checkb "worker obs absent" false on) seen

(* ---------------- Metrics.merge ---------------- *)

let merge_counters () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.incr ~by:5 (Metrics.counter a "c");
  Metrics.incr ~by:37 (Metrics.counter b "c");
  Metrics.incr ~by:2 (Metrics.counter b "only_src");
  Metrics.merge ~into:a b;
  checki "counters sum" 42 (Metrics.counter_value (Metrics.counter a "c"));
  checki "missing counters created" 2
    (Metrics.counter_value (Metrics.counter a "only_src"))

let merge_gauges () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.set (Metrics.gauge a "g") 7.0;
  Metrics.set (Metrics.gauge b "g") 3.0;
  Metrics.set (Metrics.gauge b "g") 5.0;
  Metrics.merge ~into:a b;
  (match List.assoc "g" (Metrics.snapshot a) with
  | Metrics.Gauge { last; max; samples } ->
      checkf "last comes from merged source" 5.0 last;
      checkf "max of maxes" 7.0 max;
      checki "samples sum" 3 samples
  | _ -> Alcotest.fail "expected gauge");
  (* An empty source gauge must not clobber the destination. *)
  let c = Metrics.create () in
  ignore (Metrics.gauge c "g" : Metrics.gauge);
  Metrics.merge ~into:a c;
  match List.assoc "g" (Metrics.snapshot a) with
  | Metrics.Gauge { last; max; samples } ->
      checkf "last preserved" 5.0 last;
      checkf "max preserved" 7.0 max;
      checki "samples preserved" 3 samples
  | _ -> Alcotest.fail "expected gauge"

let merge_histograms () =
  (* Sketch merging is per-bucket integer addition: the merged sketch
     answers quantiles exactly as if one sketch had seen both streams. *)
  let a = Metrics.create () and b = Metrics.create () in
  let ha = Metrics.histogram a "h" in
  let hb = Metrics.histogram b "h" in
  List.iter (Metrics.observe ha) [ 0.5; 3.0 ];
  List.iter (Metrics.observe hb) [ 0.5; 9.0; 9.0 ];
  Metrics.merge ~into:a b;
  match List.assoc "h" (Metrics.snapshot a) with
  | Metrics.Histogram { count; sum; min; max; _ } as v ->
      checki "counts sum" 5 count;
      checkf "sums add" 22.0 sum;
      checkf "min of mins" 0.5 min;
      checkf "max of maxes" 9.0 max;
      let p100 = Option.get (Metrics.value_quantile v 1.0) in
      checkb "top quantile within alpha of max" true
        (Float.abs (p100 -. 9.0) /. 9.0 <= Metrics.default_alpha)
  | _ -> Alcotest.fail "expected histogram"

let merge_kind_mismatch () =
  let a = Metrics.create () and b = Metrics.create () in
  ignore (Metrics.counter a "m" : Metrics.counter);
  Metrics.set (Metrics.gauge b "m") 1.0;
  let raised =
    try
      Metrics.merge ~into:a b;
      false
    with Invalid_argument _ -> true
  in
  checkb "kind mismatch rejected" true raised

let merge_alpha_mismatch () =
  let a = Metrics.create () and b = Metrics.create () in
  ignore (Metrics.histogram ~alpha:0.01 a "h" : Metrics.histogram);
  ignore (Metrics.histogram ~alpha:0.02 b "h" : Metrics.histogram);
  Alcotest.check_raises "sketch accuracy must match"
    (Invalid_argument "Metrics.merge: \"h\" sketch accuracy differs") (fun () ->
      Metrics.merge ~into:a b)

(* ---------------- core budget ---------------- *)

let budget_full_pool_leaves_no_spare () =
  let before = Par.spare_cores () in
  let jobs = Par.default_jobs () in
  let p = Par.create ~jobs () in
  checkb "no spare core while the pool lives" true (Par.spare_cores () <= 0);
  checkb "nothing to claim" true (Par.claim_spare () = None);
  checki "a failed claim holds nothing" (Par.spare_cores ())
    (if jobs > 1 then before - jobs else before);
  Par.shutdown p;
  checki "restored after shutdown" before (Par.spare_cores ());
  Par.shutdown p;
  checki "a second shutdown releases nothing" before (Par.spare_cores ())

let budget_sequential_pool_spawns_nothing () =
  let before = Par.spare_cores () in
  let p = Par.create ~jobs:1 () in
  checki "jobs = 1 holds no core" before (Par.spare_cores ());
  let self = Domain.self () in
  let fut = Par.submit p (fun _ -> Domain.self () = self) in
  checkb "the task ran on the calling domain" true (Par.await fut);
  Par.shutdown p;
  checki "unchanged after shutdown" before (Par.spare_cores ())

let budget_restored_after_raising_task () =
  let before = Par.spare_cores () in
  (try
     ignore (Par.map ~jobs:2 (fun x -> if x = 1 then raise (Boom x) else x) [ 0; 1; 2 ]
       : int list)
   with Boom _ -> ());
  checki "map restores the budget" before (Par.spare_cores ());
  let p = Par.create ~jobs:2 () in
  let fut = Par.submit p (fun _ -> raise (Boom 7)) in
  (try Par.await fut with Boom _ -> ());
  Par.shutdown p;
  checki "a pool restores it after a raising task" before (Par.spare_cores ())

let budget_claim_and_release () =
  let before = Par.spare_cores () in
  (match Par.claim_spare () with
  | None -> checkb "no claim without a spare core" true (before < 1)
  | Some lane ->
      checkb "a claim needs a spare core" true (before >= 1);
      checki "one core held" (before - 1) (Par.spare_cores ());
      checkb "lanes are 1-based" true (lane >= 1);
      Par.release 1);
  checki "released" before (Par.spare_cores ());
  let lane = Par.reserve 2 in
  checki "reserve holds cores spare or not" (before - 2) (Par.spare_cores ());
  checki "the next lane follows" (lane + 2) (Par.reserve 1);
  Par.release 3;
  checki "released again" before (Par.spare_cores ())

(* Series events a pooled task emits reach a traced parent, as many at
   jobs 2 as on the inline pool, each on its worker's track. *)
let pool_task_events_reach_traced_parent () =
  let run jobs =
    let buf = Buffer.create 4096 in
    let obs = Obs.create ~trace:(Obs.Buffer buf) () in
    ignore
      (Par.map_obs ~obs ~name:"t" ~jobs
         (fun wobs x ->
           for k = 1 to 5 do
             Obs.event wobs ~name:"t.series" ~attrs:[ ("k", Json.Int k) ] (float_of_int x)
           done;
           x)
         (List.init 6 Fun.id)
        : int list);
    Obs.finish obs;
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter_map (fun line ->
           let n = String.length line in
           match Json.of_string (if n > 0 && line.[0] = ',' then String.sub line 1 (n - 1) else line) with
           | Ok ev when Json.get_string "name" ev = Ok "t.series" -> (
               match Json.get_int "tid" ev with Ok tid -> Some tid | Error _ -> None)
           | _ -> None)
  in
  let inline = run 1 and pooled = run 2 in
  checki "every inline task's events" 30 (List.length inline);
  checki "every pooled task's events" 30 (List.length pooled);
  checkb "on worker tracks" true (List.for_all (fun tid -> tid >= 1) pooled)

(* The inline worker of a jobs:1 pool runs on the calling domain and
   holds no core, so a helper its task claims must not share its lane. *)
let inline_pool_helper_lane_apart () =
  let buf = Buffer.create 4096 in
  let obs = Obs.create ~trace:(Obs.Buffer buf) () in
  ignore
    (Par.map_obs ~obs ~name:"t" ~jobs:1
       (fun wobs x ->
         Obs.span wobs "t.task" (fun () ->
             Helper_stream.run ~helper:true ?obs:wobs ~name:"t.stream"
               (fun hobs ->
                 Obs.event hobs ~name:"t.helper" 1.0;
                 fun _ _ _ -> ())
               (fun _ -> ()));
         x)
       [ 1 ]
      : int list);
  Obs.finish obs;
  let tids name =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter_map (fun line ->
           let n = String.length line in
           match Json.of_string (if n > 0 && line.[0] = ',' then String.sub line 1 (n - 1) else line) with
           | Ok ev when Json.get_string "name" ev = Ok name -> (
               match Json.get_int "tid" ev with Ok tid -> Some tid | Error _ -> None)
           | _ -> None)
  in
  match (tids "t.task", tids "t.helper") with
  | [ task ], [ helper ] -> checkb "worker and helper on different tids" true (task <> helper)
  | t, h ->
      Alcotest.failf "expected one task span and one helper event, got %d and %d"
        (List.length t) (List.length h)

let suite =
  let tc name f = Alcotest.test_case name `Quick f in
  [
    tc "map: deterministic ordering" map_ordering;
    tc "map: jobs-independent results" map_jobs_independent;
    tc "map: empty/singleton/over-provisioned" map_edge_shapes;
    tc "map: exception propagation" map_exception_propagation;
    tc "map: first failure wins" map_first_failure_wins;
    tc "map: inline path re-raises" map_exception_sequential;
    tc "pool: submit/await ordering" pool_submit_await;
    tc "pool: shutdown idempotent, then closed" pool_shutdown_idempotent_and_closed;
    tc "map_obs: worker registries merged" map_obs_merges_worker_registries;
    tc "map_obs: task latency + per-domain tracks" map_obs_tracks_and_latency;
    tc "map_obs: merged summaries jobs-invariant" map_obs_jobs_invariant;
    tc "map_obs: disabled without parent" map_obs_without_parent_is_silent;
    tc "metrics.merge: counters" merge_counters;
    tc "metrics.merge: gauges" merge_gauges;
    tc "metrics.merge: histograms" merge_histograms;
    tc "metrics.merge: kind mismatch" merge_kind_mismatch;
    tc "metrics.merge: sketch accuracy mismatch" merge_alpha_mismatch;
    tc "budget: a full pool leaves no spare core" budget_full_pool_leaves_no_spare;
    tc "budget: jobs = 1 spawns nothing" budget_sequential_pool_spawns_nothing;
    tc "budget: restored after a raising task" budget_restored_after_raising_task;
    tc "budget: claim and release" budget_claim_and_release;
    tc "map_obs: task events reach a traced parent" pool_task_events_reach_traced_parent;
    tc "map_obs: an inline task's helper gets its own lane" inline_pool_helper_lane_apart;
  ]
