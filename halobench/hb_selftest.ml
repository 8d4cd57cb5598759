(* The benchmark's own tests, at tiny scale (run.py --selftest):
   - seed plumbing: one seed gives one output digest, another seed gives
     different fleet and mix job streams and a different suite row;
   - the layer ladder's exactness checks pass. *)

open Hb_common

let failures = ref 0

let check name ok =
  Printf.eprintf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

(* The fleet's own set-up and pass, on the first 60 jobs of the stream. *)
let tiny_fleet ~seed =
  let jobs, d = Hb_fleet.setup ~seed ~name:(Printf.sprintf "selftest-fleet-%d" seed) in
  let p = Hb_fleet.run_pass d (List.filteri (fun i _ -> i < 60) jobs) in
  rm_rf d.Hb_fleet.dir;
  p.Hb_fleet.digest

let tiny_mix ~seed =
  let sched = Schedule.drifting ~phases:2 ~ticks_per_phase:1 ~rate:3.0 ~drift:0.5 () in
  let r = Traffic_mix.run ~config:Hb_mix.config ~seed sched in
  (r.Traffic_mix.schedule_digest, r.Traffic_mix.exec_digest)

let suite_row ~seed =
  let w = Option.get (Workloads.find "health") in
  Json.to_string ~pretty:false (Runner.to_json (Runner.run ~seed w Runner.Jemalloc))

let run () =
  let f1 = tiny_fleet ~seed:1 and f1' = tiny_fleet ~seed:1 in
  check "fleet: same seed, same responses" (f1 = f1');
  let stream seed = digest_of_strings (List.map (fun j -> j.Hb_fleet.line) (Hb_fleet.job_lines ~seed)) in
  check "fleet: another seed, another job stream" (stream 1 <> stream 2);
  let m1 = tiny_mix ~seed:1 and m1' = tiny_mix ~seed:1 and m2 = tiny_mix ~seed:2 in
  check "mix: same seed, same schedule and exec digests" (m1 = m1');
  check "mix: another seed, another schedule" (fst m1 <> fst m2);
  let s2 = suite_row ~seed:2 in
  check "suite: same seed, same Runner.to_json row" (s2 = suite_row ~seed:2);
  check "suite: another seed, another row" (s2 <> suite_row ~seed:3);
  let tot = Hb_ladder.create_totals () in
  List.iter
    (fun name ->
      let w = Option.get (Workloads.find name) in
      Hb_ladder.add_program tot ~trials:1 ~seed:1 w (w.Workload.make Workload.Test))
    [ "health"; "xalanc" ];
  List.iter (fun f -> Printf.eprintf "  %s\n" f) tot.Hb_ladder.failures;
  check "ladder: cache and profile setups match Hierarchy and Profiler" (tot.Hb_ladder.failures = []);
  check "ladder: counted events, allocator ops and macro accesses"
    (tot.Hb_ladder.events > 0 && tot.Hb_ladder.alloc_ops > 0 && tot.Hb_ladder.macro_accesses > 0);
  Printf.eprintf "selftest: %s\n%!" (if !failures = 0 then "ok" else "FAILED");
  if !failures = 0 then 0 else 1
