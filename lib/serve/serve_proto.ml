type payload =
  | Profile_record of {
      workload : string;
      seed : int;
      weight : float;
      scale : Workload.scale;
    }
  | Profile_load of { path : string; weight : float }
  | Plan_request of { workload : string }
  | Stats
  | Shutdown

type job = { id : int; payload : payload }

let job_name = function
  | Profile_record _ | Profile_load _ -> "profile-record"
  | Plan_request _ -> "plan-request"
  | Stats -> "stats"
  | Shutdown -> "shutdown"

let scale_name = function
  | Workload.Test -> "test"
  | Workload.Train -> "train"
  | Workload.Ref -> "ref"

let scale_of_name = function
  | "test" -> Ok Workload.Test
  | "train" -> Ok Workload.Train
  | "ref" -> Ok Workload.Ref
  | s -> Error (Printf.sprintf "unknown scale %S (test, train or ref)" s)

(* Optional fields with defaults; required fields surface the accessor's
   own error message. *)
let opt_float ~default k j =
  match Json.mem k j with
  | None -> Ok default
  | Some _ -> Json.get_float k j

let opt_int ~default k j =
  match Json.mem k j with None -> Ok default | Some _ -> Json.get_int k j

let ( let* ) = Result.bind

let job_of_json j =
  let* id = Json.get_int "id" j in
  let* kind = Json.get_string "job" j in
  let* payload =
    match kind with
    | "profile-record" -> (
        let* weight = opt_float ~default:1.0 "weight" j in
        if (not (Float.is_finite weight)) || weight <= 0.0 then
          Error "field \"weight\" must be positive and finite"
        else
          match Json.mem "artifact" j with
          | Some _ ->
              let* path = Json.get_string "artifact" j in
              Ok (Profile_load { path; weight })
          | None ->
              let* workload = Json.get_string "workload" j in
              let* seed = opt_int ~default:1 "seed" j in
              let* scale =
                match Json.mem "scale" j with
                | None -> Ok Workload.Test
                | Some _ ->
                    let* s = Json.get_string "scale" j in
                    scale_of_name s
              in
              Ok (Profile_record { workload; seed; weight; scale }))
    | "plan-request" ->
        let* workload = Json.get_string "workload" j in
        Ok (Plan_request { workload })
    | "stats" -> Ok Stats
    | "shutdown" -> Ok Shutdown
    | k -> Error (Printf.sprintf "unknown job kind %S" k)
  in
  Ok { id; payload }

let parse_line line =
  match Json.of_string line with
  | Error e -> Error (None, "bad json: " ^ e)
  | Ok j -> (
      match job_of_json j with
      | Ok _ as ok -> ok
      | Error msg -> Error (Result.to_option (Json.get_int "id" j), msg))

let job_of_line line = Result.map_error snd (parse_line line)

let job_to_json { id; payload } =
  let base = [ ("job", Json.String (job_name payload)); ("id", Json.Int id) ] in
  Json.Obj
    (base
    @
    match payload with
    | Profile_record { workload; seed; weight; scale } ->
        [
          ("workload", Json.String workload);
          ("seed", Json.Int seed);
          ("weight", Json.Float weight);
          ("scale", Json.String (scale_name scale));
        ]
    | Profile_load { path; weight } ->
        [ ("artifact", Json.String path); ("weight", Json.Float weight) ]
    | Plan_request { workload } -> [ ("workload", Json.String workload) ]
    | Stats | Shutdown -> [])

let ok_response ~id ~kind fields =
  Json.Obj
    ([ ("id", Json.Int id); ("ok", Json.Bool true); ("job", Json.String kind) ]
    @ fields)

let error_response ~id msg =
  Json.Obj
    [
      ("id", match id with Some i -> Json.Int i | None -> Json.Null);
      ("ok", Json.Bool false);
      ("error", Json.String msg);
    ]

let response_line j = Json.to_string ~pretty:false j

let max_line_bytes = 1 lsl 20

let max_connections = 64
