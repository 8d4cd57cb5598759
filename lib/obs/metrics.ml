type counter = { c_name : string; mutable c_value : int }

type gauge = {
  g_name : string;
  mutable g_last : float;
  mutable g_max : float;
  mutable g_samples : int;
}

(* Log-bucketed quantile sketch (DDSketch-style). A positive observation
   [v] lands in bucket [ceil (log_gamma v)], i.e. the bucket covering
   (gamma^(i-1), gamma^i]; the bucket's representative value
   [2 gamma^i / (gamma + 1)] is within relative error [alpha] of every
   value the bucket covers, where [gamma = (1+alpha)/(1-alpha)]. Buckets
   are sparse (only touched indices are stored), so the footprint is
   O(log range / alpha) and [merge] is exact per-bucket integer
   addition — associative and commutative. Non-positive observations are
   counted in a dedicated zero bucket whose representative is 0. *)
type histogram = {
  h_name : string;
  h_alpha : float;
  h_gamma : float;
  h_log_gamma : float;
  h_buckets : (int, int ref) Hashtbl.t;
  mutable h_zero : int; (* observations <= 0 *)
  mutable h_sum : float;
  mutable h_count : int;
  mutable h_min : float;
  mutable h_max : float;
}

type metric = C of counter | G of gauge | H of histogram

type registry = { tbl : (string, metric) Hashtbl.t; mutable order : string list }

let create () = { tbl = Hashtbl.create 32; order = [] }

let register r name m =
  if Hashtbl.mem r.tbl name then
    invalid_arg (Printf.sprintf "Metrics: %S registered twice with different kinds" name);
  Hashtbl.replace r.tbl name m;
  r.order <- name :: r.order

let counter r name =
  match Hashtbl.find_opt r.tbl name with
  | Some (C c) -> c
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.counter: %S is not a counter" name)
  | None ->
      let c = { c_name = name; c_value = 0 } in
      register r name (C c);
      c

let incr ?(by = 1) c = c.c_value <- c.c_value + by
let counter_value c = c.c_value
let counter_name c = c.c_name

let gauge r name =
  match Hashtbl.find_opt r.tbl name with
  | Some (G g) -> g
  | Some _ -> invalid_arg (Printf.sprintf "Metrics.gauge: %S is not a gauge" name)
  | None ->
      let g = { g_name = name; g_last = 0.0; g_max = neg_infinity; g_samples = 0 } in
      register r name (G g);
      g

let set g v =
  g.g_last <- v;
  if v > g.g_max then g.g_max <- v;
  g.g_samples <- g.g_samples + 1

let gauge_value g = g.g_last

let default_alpha = 0.01

let gamma_of_alpha alpha = (1.0 +. alpha) /. (1.0 -. alpha)

let make_histogram ~alpha name =
  if not (alpha > 0.0 && alpha < 1.0) then
    invalid_arg "Metrics.histogram: alpha must be in (0, 1)";
  let gamma = gamma_of_alpha alpha in
  {
    h_name = name;
    h_alpha = alpha;
    h_gamma = gamma;
    h_log_gamma = log gamma;
    h_buckets = Hashtbl.create 32;
    h_zero = 0;
    h_sum = 0.0;
    h_count = 0;
    h_min = infinity;
    h_max = neg_infinity;
  }

let histogram ?(alpha = default_alpha) r name =
  match Hashtbl.find_opt r.tbl name with
  | Some (H h) -> h
  | Some _ ->
      invalid_arg (Printf.sprintf "Metrics.histogram: %S is not a histogram" name)
  | None ->
      let h = make_histogram ~alpha name in
      register r name (H h);
      h

let bucket_index h v = int_of_float (Float.ceil (log v /. h.h_log_gamma))

(* The representative sits at the harmonic midpoint of the bucket's
   (gamma^(i-1), gamma^i] range: within [alpha] relative error of both
   ends. *)
let bucket_value h i = 2.0 *. (h.h_gamma ** float_of_int i) /. (h.h_gamma +. 1.0)

let observe h v =
  (if v > 0.0 then begin
     let i = bucket_index h v in
     match Hashtbl.find_opt h.h_buckets i with
     | Some n -> Stdlib.incr n
     | None -> Hashtbl.replace h.h_buckets i (ref 1)
   end
   else h.h_zero <- h.h_zero + 1);
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1;
  if v > h.h_max then h.h_max <- v;
  if v < h.h_min then h.h_min <- v

let histogram_count h = h.h_count
let histogram_sum h = h.h_sum
let histogram_alpha h = h.h_alpha
let histogram_min h = h.h_min
let histogram_max h = h.h_max

let sorted_buckets h =
  Hashtbl.fold (fun i n acc -> (i, !n) :: acc) h.h_buckets []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let histogram_buckets h =
  let pos =
    List.map (fun (i, n) -> (h.h_gamma ** float_of_int i, n)) (sorted_buckets h)
  in
  if h.h_zero > 0 then (0.0, h.h_zero) :: pos else pos

(* Quantile over (zero count, ascending (index, count) buckets): walk the
   cumulative counts to the bucket holding rank [q * (n-1)], then report
   its representative, clamped into the recorded [min, max] envelope
   (clamping only ever moves the estimate towards the true value). *)
let quantile_impl ~zero ~buckets ~count ~min_v ~max_v ~value_of q =
  if count = 0 then None
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = int_of_float (q *. float_of_int (count - 1)) in
    let clamp v = Float.max min_v (Float.min max_v v) in
    if zero > rank then Some (clamp 0.0)
    else begin
      let cum = ref zero and result = ref None in
      List.iter
        (fun (i, n) ->
          if !result = None then begin
            cum := !cum + n;
            if !cum > rank then result := Some (clamp (value_of i))
          end)
        buckets;
      match !result with
      | Some _ as r -> r
      | None -> Some max_v (* rounding slack: rank beyond the last bucket *)
    end
  end

let quantile h q =
  quantile_impl ~zero:h.h_zero ~buckets:(sorted_buckets h) ~count:h.h_count
    ~min_v:h.h_min ~max_v:h.h_max ~value_of:(bucket_value h) q

type value =
  | Counter of int
  | Gauge of { last : float; max : float; samples : int }
  | Histogram of {
      count : int;
      sum : float;
      min : float;
      max : float;
      alpha : float;
      zero : int;
      buckets : (float * int) list;
    }

let value_of = function
  | C c -> Counter c.c_value
  | G g -> Gauge { last = g.g_last; max = g.g_max; samples = g.g_samples }
  | H h ->
      Histogram
        {
          count = h.h_count;
          sum = h.h_sum;
          min = h.h_min;
          max = h.h_max;
          alpha = h.h_alpha;
          zero = h.h_zero;
          buckets =
            List.map
              (fun (i, n) -> (h.h_gamma ** float_of_int i, n))
              (sorted_buckets h);
        }

let value_quantile v q =
  match v with
  | Counter _ | Gauge _ -> None
  | Histogram { count; min; max; alpha; zero; buckets; _ } ->
      let gamma = gamma_of_alpha alpha in
      let log_gamma = log gamma in
      let buckets =
        List.map
          (fun (le, n) ->
            (int_of_float (Float.round (log le /. log_gamma)), n))
          buckets
      in
      quantile_impl ~zero ~buckets ~count ~min_v:min ~max_v:max
        ~value_of:(fun i -> 2.0 *. (gamma ** float_of_int i) /. (gamma +. 1.0))
        q

let merge ~into src =
  List.iter
    (fun name ->
      match Hashtbl.find src.tbl name with
      | C c -> incr ~by:c.c_value (counter into name)
      | G g ->
          let d = gauge into name in
          if g.g_samples > 0 then begin
            if g.g_max > d.g_max then d.g_max <- g.g_max;
            d.g_last <- g.g_last;
            d.g_samples <- d.g_samples + g.g_samples
          end
      | H h ->
          let d = histogram ~alpha:h.h_alpha into name in
          if d.h_alpha <> h.h_alpha then
            invalid_arg
              (Printf.sprintf "Metrics.merge: %S sketch accuracy differs" name);
          Hashtbl.iter
            (fun i n ->
              match Hashtbl.find_opt d.h_buckets i with
              | Some m -> m := !m + !n
              | None -> Hashtbl.replace d.h_buckets i (ref !n))
            h.h_buckets;
          d.h_zero <- d.h_zero + h.h_zero;
          d.h_sum <- d.h_sum +. h.h_sum;
          d.h_count <- d.h_count + h.h_count;
          if h.h_max > d.h_max then d.h_max <- h.h_max;
          if h.h_min < d.h_min then d.h_min <- h.h_min)
    (List.rev src.order)

let snapshot r =
  List.rev_map (fun name -> (name, value_of (Hashtbl.find r.tbl name))) r.order
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let float_json f = if Float.is_finite f then Json.Float f else Json.Null

(* The overflow bound is spelled the OpenMetrics way — the string "+Inf" —
   in the trace's halo.metric summaries, never as a JSON null. *)
let le_json bound =
  if Float.is_finite bound then Json.Float bound else Json.String "+Inf"

let buckets_json ~zero buckets =
  let entries =
    (if zero > 0 then [ (0.0, zero) ] else [])
    @ buckets
    @ [ (infinity, 0) ]
  in
  Json.List
    (List.map
       (fun (bound, n) ->
         Json.Obj [ ("le", le_json bound); ("count", Json.Int n) ])
       entries)

(* Registered-but-never-updated gauges and histograms carry sentinel
   infinite extrema, which [float_json] would serialise as JSON [null];
   emit [samples = 0] / [count = 0] and omit the value fields entirely so
   trace consumers never see a null statistic. *)
let value_to_json v =
  match v with
  | Counter n -> Json.Obj [ ("kind", Json.String "counter"); ("value", Json.Int n) ]
  | Gauge { samples = 0; _ } ->
      Json.Obj [ ("kind", Json.String "gauge"); ("samples", Json.Int 0) ]
  | Gauge { last; max; samples } ->
      Json.Obj
        [
          ("kind", Json.String "gauge");
          ("value", float_json last);
          ("max", float_json max);
          ("samples", Json.Int samples);
        ]
  | Histogram { count; sum; min; max; alpha; zero; buckets } ->
      let quantiles =
        if count = 0 then []
        else
          List.filter_map
            (fun (key, q) ->
              Option.map (fun x -> (key, float_json x)) (value_quantile v q))
            [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p999", 0.999) ]
      in
      Json.Obj
        ([
           ("kind", Json.String "histogram");
           ("count", Json.Int count);
           ("sum", float_json sum);
           ("alpha", Json.Float alpha);
         ]
        @ (if count = 0 then []
           else [ ("min", float_json min); ("max", float_json max) ])
        @ quantiles
        @ [ ("buckets", buckets_json ~zero buckets) ])

let value_of_json j =
  let ( let* ) = Result.bind in
  let* kind = Json.get_string "kind" j in
  match kind with
  | "counter" ->
      let* v = Json.get_int "value" j in
      Ok (Counter v)
  | "gauge" -> (
      let* samples = Json.get_int "samples" j in
      if samples = 0 then Ok (Gauge { last = 0.0; max = neg_infinity; samples = 0 })
      else
        let* last = Json.get_float "value" j in
        let* max = Json.get_float "max" j in
        Ok (Gauge { last; max; samples }))
  | "histogram" ->
      let* count = Json.get_int "count" j in
      let* sum = Json.get_float "sum" j in
      let* alpha = Json.get_float "alpha" j in
      let* min, max =
        if count = 0 then Ok (infinity, neg_infinity)
        else
          let* mn = Json.get_float "min" j in
          let* mx = Json.get_float "max" j in
          Ok (mn, mx)
      in
      let* entries = Json.get_list "buckets" j in
      let* parsed =
        List.fold_left
          (fun acc e ->
            let* acc = acc in
            let* n = Json.get_int "count" e in
            match Json.mem "le" e with
            | Some (Json.String "+Inf") -> Ok ((infinity, n) :: acc)
            | Some (Json.Float f) -> Ok ((f, n) :: acc)
            | Some (Json.Int i) -> Ok ((float_of_int i, n) :: acc)
            | _ -> Error "buckets: le must be a number or \"+Inf\"")
          (Ok []) entries
      in
      let parsed = List.rev parsed in
      let zero =
        List.fold_left
          (fun z (le, n) -> if le = 0.0 then z + n else z)
          0 parsed
      in
      let buckets =
        List.filter (fun (le, n) -> le > 0.0 && Float.is_finite le && n > 0) parsed
      in
      Ok (Histogram { count; sum; min; max; alpha; zero; buckets })
  | k -> Error (Printf.sprintf "unknown metric kind %S" k)

let to_json r =
  Json.Obj (List.map (fun (name, v) -> (name, value_to_json v)) (snapshot r))
