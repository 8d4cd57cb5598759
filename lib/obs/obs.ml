type gc_delta = {
  gd_minor_words : float;
  gd_major_words : float;
  gd_promoted_words : float;
  gd_minor_collections : int;
  gd_major_collections : int;
  gd_compactions : int;
}

type span = {
  id : int;
  parent : int option;
  name : string;
  depth : int;
  track : int;
  start_s : float; (* on the context's timeline: clock () - epoch *)
  mutable dur_s : float;
  mutable sp_instructions : int option;
  mutable sp_gc : gc_delta option;
  mutable attrs : (string * Json.t) list;
  mutable closed : bool;
}

(* The trace sink; obs.mli documents the format at [target]. The
   process_name event follows the "[" line, so every later event starts
   with ",". *)
type target = Channel of out_channel | Buffer of Buffer.t

type sink = { target : target; mutable named_tracks : int list }

(* A counter event a {!child} keeps until {!adopt}; [ts] on its timeline. *)
type held = {
  h_name : string;
  h_track : int;
  h_ts : float;
  h_value : float;
  h_attrs : (string * Json.t) list;
}

type t = {
  metrics : Metrics.registry;
  sink : sink option;
  clock : unit -> float;
  epoch : float;
  track : int;
  hold : bool; (* keep events for a parent's trace: see [child] *)
  mutable held : held list; (* most recent first *)
  mutable stack : (span * Gc.stat) list; (* innermost open span first *)
  mutable recorded : span list; (* every span, most recently started first *)
  mutable next_id : int;
}

let put s str =
  match s.target with
  | Channel oc -> output_string oc str
  | Buffer b -> Buffer.add_string b str

let put_event s ev = put s ("," ^ Json.to_string ~pretty:false ev ^ "\n")

let flush_sink s = match s.target with Channel oc -> flush oc | Buffer _ -> ()

let float_json f = if Float.is_finite f then Json.Float f else Json.Null
let us s = Json.Float (s *. 1e6)

let metadata ?(tid = 0) name args =
  Json.Obj
    [
      ("name", Json.String name);
      ("ph", Json.String "M");
      ("pid", Json.Int 0);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let open_sink ~process_name target =
  let s = { target; named_tracks = [] } in
  let ev = metadata "process_name" [ ("name", Json.String process_name) ] in
  put s ("[\n" ^ Json.to_string ~pretty:false ev ^ "\n");
  s

(* Name a track the first time an event lands on it. *)
let name_track s tid =
  if not (List.mem tid s.named_tracks) then begin
    s.named_tracks <- tid :: s.named_tracks;
    let name = if tid = 0 then "main" else Printf.sprintf "domain-%d" tid in
    put_event s (metadata ~tid "thread_name" [ ("name", Json.String name) ])
  end

let span_args (sp : span) =
  [
    ("span_id", Json.Int sp.id);
    ("parent_id", match sp.parent with None -> Json.Null | Some p -> Json.Int p);
  ]
  @ (match sp.sp_instructions with
    | None -> []
    | Some n -> [ ("instructions", Json.Int n) ])
  @ (match sp.sp_gc with
    | None -> []
    | Some d ->
        [
          ("gc.minor_words", float_json d.gd_minor_words);
          ("gc.major_words", float_json d.gd_major_words);
          ("gc.promoted_words", float_json d.gd_promoted_words);
          ("gc.minor_collections", Json.Int d.gd_minor_collections);
          ("gc.major_collections", Json.Int d.gd_major_collections);
          ("gc.compactions", Json.Int d.gd_compactions);
        ])
  @ sp.attrs

(* A closed span is one complete ("X") event: [ts]/[dur] in
   microseconds, [tid] = its track. *)
let emit_span s (sp : span) =
  name_track s sp.track;
  put_event s
    (Json.Obj
       [
         ("name", Json.String sp.name);
         ("cat", Json.String "halo");
         ("ph", Json.String "X");
         ("pid", Json.Int 0);
         ("tid", Json.Int sp.track);
         ("ts", us sp.start_s);
         ("dur", us sp.dur_s);
         ("args", Json.Obj (span_args sp));
       ])

(* One "halo.metric" metadata event per registered metric, then the
   closing "]". *)
let close_sink s metrics =
  List.iter
    (fun (name, v) ->
      put_event s
        (metadata "halo.metric"
           (("name", Json.String name)
           ::
           (match Metrics.value_to_json v with
           | Json.Obj fields -> fields
           | other -> [ ("value", other) ]))))
    (Metrics.snapshot metrics);
  put s "]\n";
  flush_sink s

let create ?(clock = Obs_clock.now) ?epoch ?(track = 0) ?trace () =
  let epoch = match epoch with Some e -> e | None -> clock () in
  {
    metrics = Metrics.create ();
    sink = Option.map (open_sink ~process_name:"halo") trace;
    clock;
    epoch;
    track;
    hold = false;
    held = [];
    stack = [];
    recorded = [];
    next_id = 0;
  }

let child parent ~track =
  {
    metrics = Metrics.create ();
    sink = None;
    clock = parent.clock;
    epoch = parent.epoch;
    track;
    hold = parent.hold || Option.is_some parent.sink;
    held = [];
    stack = [];
    recorded = [];
    next_id = 0;
  }

let enabled = Option.is_some
let metrics t = t.metrics
let epoch t = t.epoch
let track t = t.track

let span_begin t name =
  let parent, depth =
    match t.stack with
    | [] -> (None, 0)
    | (p, _) :: _ -> (Some p.id, p.depth + 1)
  in
  let sp =
    {
      id = t.next_id;
      parent;
      name;
      depth;
      track = t.track;
      start_s = t.clock () -. t.epoch;
      dur_s = 0.0;
      sp_instructions = None;
      sp_gc = None;
      attrs = [];
      closed = false;
    }
  in
  t.next_id <- t.next_id + 1;
  t.stack <- (sp, Gc.quick_stat ()) :: t.stack;
  t.recorded <- sp :: t.recorded;
  sp

let allocated_words (d : gc_delta) =
  d.gd_minor_words +. d.gd_major_words -. d.gd_promoted_words

let span_end t sp ~instructions =
  let gc0 =
    match t.stack with
    | (top, gc0) :: rest when top == sp ->
        t.stack <- rest;
        gc0
    | _ -> invalid_arg (Printf.sprintf "Obs: span %S closed out of order" sp.name)
  in
  sp.dur_s <- t.clock () -. t.epoch -. sp.start_s;
  sp.sp_instructions <- instructions;
  let gc1 = Gc.quick_stat () in
  let delta =
    {
      gd_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
      gd_major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
      gd_promoted_words = gc1.Gc.promoted_words -. gc0.Gc.promoted_words;
      gd_minor_collections = gc1.Gc.minor_collections - gc0.Gc.minor_collections;
      gd_major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
      gd_compactions = gc1.Gc.compactions - gc0.Gc.compactions;
    }
  in
  sp.sp_gc <- Some delta;
  (* Mutator-side cost of the whole run: refresh the allocation-rate
     gauge whenever a top-level span closes. *)
  if sp.depth = 0 && sp.dur_s > 0.0 then
    Metrics.set
      (Metrics.gauge t.metrics "runtime.alloc_rate")
      (allocated_words delta /. sp.dur_s);
  sp.closed <- true;
  match t.sink with
  | None -> ()
  | Some s ->
      emit_span s sp;
      (* A root span closing ends a unit of work (a run, a serve batch):
         flush, so a daemon killed later leaves its trace on disk. *)
      if sp.depth = 0 then flush_sink s

let span ?(attrs = []) ?instructions obs name f =
  match obs with
  | None -> f ()
  | Some t ->
      let sp = span_begin t name in
      sp.attrs <- attrs;
      let instr0 = match instructions with None -> 0 | Some g -> g () in
      let finish () =
        let delta =
          match instructions with None -> None | Some g -> Some (g () - instr0)
        in
        span_end t sp ~instructions:delta
      in
      Fun.protect ~finally:finish f

let add_attrs obs attrs =
  match obs with
  | None -> ()
  | Some t -> (
      match t.stack with
      | [] -> ()
      | (sp, _) :: _ -> sp.attrs <- sp.attrs @ attrs)

let count obs name by =
  match obs with
  | None -> ()
  | Some t -> Metrics.incr ~by (Metrics.counter t.metrics name)

let set_gauge obs name v =
  match obs with
  | None -> ()
  | Some t -> Metrics.set (Metrics.gauge t.metrics name) v

let observe obs name v =
  match obs with
  | None -> ()
  | Some t -> Metrics.observe (Metrics.histogram t.metrics name) v

let emit_event s h =
  name_track s h.h_track;
  put_event s
    (Json.Obj
       [
         ("name", Json.String h.h_name);
         ("cat", Json.String "halo");
         ("ph", Json.String "C");
         ("pid", Json.Int 0);
         ("tid", Json.Int h.h_track);
         ("ts", us h.h_ts);
         ("args", Json.Obj (("value", float_json h.h_value) :: h.h_attrs));
       ])

let event obs ~name ?(attrs = []) v =
  match obs with
  | None -> ()
  | Some { sink = None; hold = false; _ } -> ()
  | Some t -> (
      let h =
        {
          h_name = name;
          h_track = t.track;
          h_ts = t.clock () -. t.epoch;
          h_value = v;
          h_attrs = attrs;
        }
      in
      match t.sink with Some s -> emit_event s h | None -> t.held <- h :: t.held)

let spans t = List.rev t.recorded

let adopt t ~from =
  (match from.stack with
  | [] -> ()
  | _ -> invalid_arg "Obs.adopt: source context still has open spans");
  let offset = t.next_id in
  let shift = from.epoch -. t.epoch in
  let adopted =
    List.rev_map
      (fun (sp : span) ->
        {
          sp with
          id = sp.id + offset;
          parent = Option.map (fun p -> p + offset) sp.parent;
          start_s = sp.start_s +. shift;
        })
      from.recorded
    (* rev_map over most-recent-first gives start order ... *)
  in
  t.next_id <- t.next_id + from.next_id;
  List.iter
    (fun sp ->
      t.recorded <- sp :: t.recorded;
      Option.iter (fun s -> emit_span s sp) t.sink)
    adopted;
  List.iter
    (fun h ->
      let h = { h with h_ts = h.h_ts +. shift } in
      match t.sink with
      | Some s -> emit_event s h
      | None -> if t.hold then t.held <- h :: t.held)
    (List.rev from.held);
  from.held <- []

let finish t =
  (match t.stack with
  | [] -> ()
  | open_spans ->
      (* Close any spans left open (a failed run): innermost first. *)
      List.iter (fun (sp, _) -> span_end t sp ~instructions:None) open_spans);
  Option.iter (fun s -> close_sink s t.metrics) t.sink

let export ?(process_name = "halo") target t =
  let s = open_sink ~process_name target in
  List.iter (emit_span s) (spans t);
  close_sink s t.metrics
