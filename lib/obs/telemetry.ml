type rspan = {
  r_id : int;
  r_parent : int option;
  r_name : string;
  r_depth : int;
  r_track : int;
  r_start_s : float;
  r_dur_s : float;
  r_stage : string option;
}

type t = { spans : rspan list; metrics : (string * Metrics.value) list }

let ( let* ) = Result.bind

let args_of j =
  match Json.mem "args" j with
  | Some a -> Ok a
  | None -> Error "missing field \"args\""

(* [r_depth] is filled in from the parent links once every span is read:
   a span's "X" event is written when it closes, after its children. *)
let parse_span j =
  let* name = Json.get_string "name" j in
  let* ts = Json.get_float "ts" j in
  let* dur = Json.get_float "dur" j in
  let* args = args_of j in
  let* id = Json.get_int "span_id" args in
  let parent =
    match Json.mem "parent_id" args with Some (Json.Int p) -> Some p | _ -> None
  in
  let track = match Json.mem "tid" j with Some (Json.Int t) -> t | _ -> 0 in
  let stage =
    match Json.mem "stage" args with Some (Json.String s) -> Some s | _ -> None
  in
  Ok
    {
      r_id = id;
      r_parent = parent;
      r_name = name;
      r_depth = 0;
      r_track = track;
      r_start_s = ts /. 1e6;
      r_dur_s = dur /. 1e6;
      r_stage = stage;
    }

let parse_metric j =
  let* args = args_of j in
  let* name = Json.get_string "name" args in
  let* v = Metrics.value_of_json args in
  Ok (name, v)

(* Depth = length of the parent chain within the trace. A parent id
   missing from the trace makes a root; the provisional 0 stored before
   recursing ends a cycle in a damaged trace. *)
let with_depths spans =
  let parents = Hashtbl.create 64 and memo = Hashtbl.create 64 in
  List.iter (fun sp -> Hashtbl.replace parents sp.r_id sp.r_parent) spans;
  let rec depth id =
    match Hashtbl.find_opt memo id with
    | Some d -> d
    | None ->
        Hashtbl.replace memo id 0;
        let d =
          match Hashtbl.find_opt parents id with
          | Some (Some p) when Hashtbl.mem parents p -> 1 + depth p
          | _ -> 0
        in
        Hashtbl.replace memo id d;
        d
  in
  List.map (fun sp -> { sp with r_depth = depth sp.r_id }) spans

(* The layout {!Obs} writes: "[" on the first line, one event per line
   (any leading "," stripped), and an optional closing "]". *)
let of_lines lines =
  let rec go lineno ~opened ~closed spans metrics = function
    | [] ->
        if opened then
          Ok { spans = with_depths (List.rev spans); metrics = List.rev metrics }
        else
          Error
            (Printf.sprintf
               "line %d: end of input, expected \"[\" (a trace-event JSON array)"
               lineno)
    | line :: rest -> (
        let next = go (lineno + 1) in
        let ctx e = Error (Printf.sprintf "line %d: %s" lineno e) in
        match String.trim line with
        | "" -> next ~opened ~closed spans metrics rest
        | _ when closed -> ctx "event after the closing \"]\""
        | "[" when not opened -> next ~opened:true ~closed spans metrics rest
        | _ when not opened -> ctx "expected \"[\" (a trace-event JSON array)"
        | "]" -> next ~opened ~closed:true spans metrics rest
        | l -> (
            let l =
              if l.[0] = ',' then String.sub l 1 (String.length l - 1) else l
            in
            let parsed =
              let* j = Json.of_string l in
              let* ph = Json.get_string "ph" j in
              match ph with
              | "X" ->
                  let* sp = parse_span j in
                  Ok (sp :: spans, metrics)
              | "M" when Json.mem "name" j = Some (Json.String "halo.metric") ->
                  let* m = parse_metric j in
                  Ok (spans, m :: metrics)
              | _ -> Ok (spans, metrics)
            in
            match parsed with
            | Error e -> ctx e
            | Ok (spans, metrics) -> next ~opened ~closed spans metrics rest))
  in
  go 1 ~opened:false ~closed:false [] [] lines

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> of_lines (String.split_on_char '\n' text)

(* ------------------------------------------------------------------ *)
(* Report tables                                                       *)
(* ------------------------------------------------------------------ *)

let fmt_s s =
  if Float.abs s < 1e-3 then Printf.sprintf "%.0fus" (s *. 1e6)
  else if Float.abs s < 1.0 then Printf.sprintf "%.2fms" (s *. 1e3)
  else Printf.sprintf "%.3fs" s

(* Self time = a span's duration minus its direct children's durations:
   the table's [self] column sums to total wall time with no double
   counting, which is what makes "where did the time actually go"
   answerable per stage. *)
let self_times spans =
  let child_sum = Hashtbl.create 64 in
  List.iter
    (fun sp ->
      match sp.r_parent with
      | None -> ()
      | Some p ->
          let cur = Option.value ~default:0.0 (Hashtbl.find_opt child_sum p) in
          Hashtbl.replace child_sum p (cur +. sp.r_dur_s))
    spans;
  List.map
    (fun sp ->
      let children = Option.value ~default:0.0 (Hashtbl.find_opt child_sum sp.r_id) in
      (sp, Float.max 0.0 (sp.r_dur_s -. children)))
    spans

let group_label sp = match sp.r_stage with Some s -> s | None -> sp.r_name

let stage_table t =
  let tbl = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun (sp, self) ->
      let key = group_label sp in
      match Hashtbl.find_opt tbl key with
      | Some (n, total, self_acc) ->
          Hashtbl.replace tbl key (n + 1, total +. sp.r_dur_s, self_acc +. self)
      | None ->
          order := key :: !order;
          Hashtbl.replace tbl key (1, sp.r_dur_s, self))
    (self_times t.spans);
  let table =
    Table.create ~title:"Per-stage time (self vs total)"
      ~headers:[ "stage"; "spans"; "total"; "self"; "self %" ]
      ()
  in
  let grand_self =
    List.fold_left
      (fun acc key ->
        let _, _, s = Hashtbl.find tbl key in
        acc +. s)
      0.0 (List.rev !order)
  in
  List.iter
    (fun key ->
      let n, total, self = Hashtbl.find tbl key in
      let share = if grand_self > 0.0 then self /. grand_self else 0.0 in
      Table.add_row table
        [
          key;
          string_of_int n;
          fmt_s total;
          fmt_s self;
          Printf.sprintf "%.1f%%" (100.0 *. share);
        ])
    (List.rev !order);
  table

let top_spans_table ?(n = 10) t =
  let ranked =
    List.stable_sort (fun a b -> compare b.r_dur_s a.r_dur_s) t.spans
  in
  let table =
    Table.create ~title:(Printf.sprintf "Top %d spans by duration" n)
      ~headers:[ "span"; "track"; "start"; "dur" ]
      ()
  in
  List.iteri
    (fun i sp ->
      if i < n then
        Table.add_row table
          [
            String.make (min sp.r_depth 8) ' ' ^ sp.r_name;
            string_of_int sp.r_track;
            fmt_s sp.r_start_s;
            fmt_s sp.r_dur_s;
          ])
    ranked;
  table

let fmt_g v = Printf.sprintf "%.4g" v

let metrics_table t =
  let table =
    Table.create ~title:"Metric summaries"
      ~headers:[ "metric"; "kind"; "count"; "mean"; "p50"; "p99"; "p999"; "max" ]
      ()
  in
  let q v p = match Metrics.value_quantile v p with None -> "-" | Some x -> fmt_g x in
  List.iter
    (fun (name, v) ->
      match v with
      | Metrics.Counter c ->
          Table.add_row table
            [ name; "counter"; string_of_int c; "-"; "-"; "-"; "-"; "-" ]
      | Metrics.Gauge { last; max; samples } ->
          Table.add_row table
            [
              name;
              "gauge";
              string_of_int samples;
              fmt_g last;
              "-";
              "-";
              "-";
              (if samples = 0 then "-" else fmt_g max);
            ]
      | Metrics.Histogram { count; sum; max; _ } ->
          let mean = if count = 0 then 0.0 else sum /. float_of_int count in
          Table.add_row table
            [
              name;
              "histogram";
              string_of_int count;
              fmt_g mean;
              q v 0.5;
              q v 0.99;
              q v 0.999;
              (if count = 0 then "-" else fmt_g max);
            ])
    t.metrics;
  table

let report_string ?(top = 10) t =
  String.concat "\n"
    [
      Table.render (stage_table t);
      Table.render (top_spans_table ~n:top t);
      Table.render (metrics_table t);
    ]

(* ------------------------------------------------------------------ *)
(* Diff                                                                *)
(* ------------------------------------------------------------------ *)

type diff_row = {
  d_name : string;
  d_kind : string;
  d_before : float option;
  d_after : float option;
  d_delta : float option; (* fractional change after vs before *)
  d_regressed : bool;
}

(* One representative statistic per metric: the number [diff] compares.
   Histograms compare p99 — the serve-mode north star is specified in
   tail percentiles, not means. *)
let stat_of = function
  | Metrics.Counter c -> ("counter", Some (float_of_int c))
  | Metrics.Gauge { samples = 0; _ } -> ("gauge", None)
  | Metrics.Gauge { last; _ } -> ("gauge", Some last)
  | Metrics.Histogram { count = 0; _ } -> ("histogram p99", None)
  | Metrics.Histogram _ as v -> ("histogram p99", Metrics.value_quantile v 0.99)

let diff ?(threshold = 0.10) a b =
  let names =
    List.sort_uniq String.compare
      (List.map fst a.metrics @ List.map fst b.metrics)
  in
  List.map
    (fun name ->
      let look t = Option.map stat_of (List.assoc_opt name t.metrics) in
      let kind, before =
        match look a with Some (k, v) -> (k, v) | None -> ("", None)
      in
      let kind, after =
        match look b with Some (k, v) -> (k, v) | None -> (kind, None)
      in
      let delta =
        match (before, after) with
        | Some x, Some y when x <> 0.0 -> Some ((y -. x) /. Float.abs x)
        | _ -> None
      in
      let regressed =
        match delta with Some d -> Float.abs d > threshold | None -> false
      in
      { d_name = name; d_kind = kind; d_before = before; d_after = after;
        d_delta = delta; d_regressed = regressed })
    names

let diff_table ?threshold a b =
  let rows = diff ?threshold a b in
  let table =
    Table.create ~title:"Telemetry diff (B vs A)"
      ~headers:[ "metric"; "stat"; "A"; "B"; "delta"; "" ]
      ()
  in
  let opt = function None -> "-" | Some v -> fmt_g v in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.d_name;
          r.d_kind;
          opt r.d_before;
          opt r.d_after;
          (match r.d_delta with None -> "-" | Some d -> Table.fmt_pct d);
          (if r.d_regressed then "!" else "");
        ])
    rows;
  (table, List.exists (fun r -> r.d_regressed) rows)
