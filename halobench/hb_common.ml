(* Measurement plumbing shared by every workload: the nanosecond clock,
   order statistics, digests, span self times and the metric record. *)

(* bechamel's CLOCK_MONOTONIC binding: nanosecond resolution, unlike the
   microsecond gettimeofday behind Obs_clock. Plan requests take ~10 us,
   so latencies are timed here, never on Obs_clock. *)
let now_ns = Monotonic_clock.now

let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

(* Stats' order statistics over lists, [p] in [0, 1]; nan on an empty
   list, which the result's finiteness check then reports. *)
let percentile xs p = if xs = [] then nan else Stats.percentile (Array.of_list xs) (100.0 *. p)

let median xs = if xs = [] then nan else Stats.median (Array.of_list xs)

let geomean xs = Stats.geomean (Array.of_list xs)

(* One digest over a sequence of single-line strings (compact JSON). *)
let digest_of_strings l = Digest.to_hex (Digest.string (String.concat "\n" l))

(* Seconds one span costs: the median over five batches of 10,000 empty
   spans, each batch on a fresh context without a sink, as a traced pass
   has. Tracing overhead is this times the spans a pass recorded. A
   traced pass's wall time minus an untraced one's would be one sample
   of each, and the machine drifts by seconds between two passes while
   all the spans of a pass cost milliseconds. *)
let span_cost_s () =
  let per_batch = 10_000 in
  median
    (List.init 5 (fun _ ->
         let obs = Some (Obs.create ()) in
         let (), s =
           timed (fun () ->
               for _ = 1 to per_batch do
                 Obs.span obs "probe" ignore
               done)
         in
         s /. float_of_int per_batch))

let peak_heap_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1048576.0

(* A fixed integer loop: its rate tells a slower machine from a slower
   build. Best of three, so one preempted trial does not decide it. *)
let calibration_loops_per_s () =
  let n = 20_000_000 in
  let trial () =
    let x = ref 1 in
    let (), s =
      timed (fun () ->
          for i = 1 to n do
            x := ((!x * 1103515245) + i) land 0x3fffffff
          done)
    in
    ignore (Sys.opaque_identity !x);
    float_of_int n /. s
  in
  List.fold_left Float.max 0.0 [ trial (); trial (); trial () ]

(* The reference kernel: fill a fresh Hashtbl with 150,000 keys over a
   2^20 key space, each bound to a two-element list - hashing, bucket
   resizing and allocation over a table the size of L2, the same kind of
   work as the interpreter, cache simulator and profiler. It shares no
   code with the library, so no change to the library moves it; what
   moves it is the machine. On a shared host the speed a process gets
   switches between two modes about 2x apart, and drifts by a third over
   minutes. The kernel slows with the workloads: over 20-s blocks,
   profiling and measurement times divided by the kernel's stayed within
   10% while the raw times nearly doubled. A pointer chase or an integer
   loop did not follow the slow mode. Dividing a time by the kernel's
   speed in the same process reports it at the reference speed, one
   fill in [reference_ms]. *)
let reference_ms = 60.0

let reference_sample_ms () =
  let (), s =
    timed (fun () ->
        let h = Hashtbl.create 16 in
        for i = 1 to 150_000 do
          Hashtbl.replace h ((i * 7919) land 0xfffff) [ i; i + 1 ]
        done;
        ignore (Sys.opaque_identity (Hashtbl.length h)))
  in
  s *. 1e3

let mean xs = if xs = [] then nan else List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* Per span name: (count, total seconds, self seconds), where a span's
   self time is its duration minus the durations of its direct
   children. Names are returned in first-seen order. *)
let self_times obs =
  let spans = Obs.spans obs in
  let child_sum = Hashtbl.create 64 in
  List.iter
    (fun (s : Obs.span) ->
      match s.Obs.parent with
      | Some p ->
          Hashtbl.replace child_sum p
            (s.Obs.dur_s +. Option.value ~default:0.0 (Hashtbl.find_opt child_sum p))
      | None -> ())
    spans;
  let order = ref [] in
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (s : Obs.span) ->
      let self =
        s.Obs.dur_s -. Option.value ~default:0.0 (Hashtbl.find_opt child_sum s.Obs.id)
      in
      match Hashtbl.find_opt acc s.Obs.name with
      | Some (n, tot, sf) -> Hashtbl.replace acc s.Obs.name (n + 1, tot +. s.Obs.dur_s, sf +. self)
      | None ->
          order := s.Obs.name :: !order;
          Hashtbl.replace acc s.Obs.name (1, s.Obs.dur_s, self))
    spans;
  List.rev_map
    (fun name ->
      let n, tot, sf = Hashtbl.find acc name in
      (name, n, tot, sf))
    !order

let self_of table name =
  List.fold_left
    (fun acc (n, _, _, sf) -> if n = name then acc +. sf else acc)
    0.0 table

let print_self_times title table =
  let t =
    Table.create ~title ~headers:[ "span"; "count"; "total s"; "self s" ] ()
  in
  Table.set_aligns t [ Table.Left; Table.Right; Table.Right; Table.Right ];
  List.iter
    (fun (name, n, tot, sf) ->
      Table.add_row t
        [ name; string_of_int n; Printf.sprintf "%.3f" tot; Printf.sprintf "%.3f" sf ])
    table;
  prerr_string (Table.render t);
  prerr_newline ()

let log fmt = Printf.eprintf ("[halobench] " ^^ fmt ^^ "\n%!")

(* Scratch space inside the working directory; the benchmark writes
   nowhere else. run.py removes [scratch_root/tmp] after each run. *)
let scratch_root = ".halobench"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.file_exists dir -> ()
  end

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let fresh_dir name =
  let dir = Filename.concat (Filename.concat scratch_root "tmp") name in
  rm_rf dir;
  mkdir_p dir;
  dir
