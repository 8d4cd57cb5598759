type curve =
  | Const of float
  | Linear of { from_ : float; to_ : float }
  | Exp of { from_ : float; to_ : float }

let eval c ~pos =
  let pos = Float.max 0.0 (Float.min 1.0 pos) in
  match c with
  | Const v -> v
  | Linear { from_; to_ } -> from_ +. ((to_ -. from_) *. pos)
  | Exp { from_; to_ } -> from_ *. ((to_ /. from_) ** pos)

type burst = { period : int; width : int; gain : float }

type tenant = { t_name : string; t_workload : string; t_share : curve }

type phase = {
  p_label : string;
  p_ticks : int;
  p_rate : curve;
  p_burst : burst option;
  p_tenants : tenant list;
}

type t = phase list

(* ------------------------------------------------------------------ *)
(* Combinators                                                         *)
(* ------------------------------------------------------------------ *)

let tenant ?name ?(share = Const 1.0) workload =
  {
    t_name = Option.value name ~default:workload;
    t_workload = workload;
    t_share = share;
  }

let phase ?burst ~label ~ticks ~rate tenants =
  {
    p_label = label;
    p_ticks = ticks;
    p_rate = rate;
    p_burst = burst;
    p_tenants = tenants;
  }

let pause ~label ~ticks = phase ~label ~ticks ~rate:(Const 0.0) []

let repeat n s = List.concat (List.init (max 0 n) (fun _ -> s))

let total_ticks s = List.fold_left (fun acc p -> acc + p.p_ticks) 0 s

let rotate a =
  let n = Array.length a in
  if n > 1 then begin
    let head = a.(0) in
    Array.blit a 1 a 0 (n - 1);
    a.(n - 1) <- head
  end

let drifting ?workloads ?(ticks_per_phase = 1) ?(rate = 100.0) ~phases ~drift ()
    =
  let workloads =
    match workloads with Some ws -> ws | None -> Workloads.names
  in
  let n = List.length workloads in
  if n = 0 then invalid_arg "Schedule.drifting: no workloads";
  (* Quadratic skew toward rank 0: P(rank < k) = sqrt(k/n), so the head
     of the ranking takes most of the traffic without a real Zipf
     sampler — the same popularity law the fleet simulator used. *)
  let share k =
    sqrt (float_of_int (k + 1) /. float_of_int n)
    -. sqrt (float_of_int k /. float_of_int n)
  in
  let ranking = Array.of_list workloads in
  let carry = ref 0.0 in
  List.init phases (fun i ->
      if i > 0 then begin
        (* Error-diffusion rotation: [drift] rotations per phase on
           average, applied at exact integer crossings — no coin flips,
           so the shape is identical for every seed. *)
        carry := !carry +. drift;
        let rot = int_of_float (floor !carry) in
        carry := !carry -. float_of_int rot;
        for _ = 1 to rot do
          rotate ranking
        done
      end;
      let tenants =
        Array.to_list
          (Array.mapi
             (fun k w ->
               { t_name = w; t_workload = w; t_share = Const (share k) })
             ranking)
      in
      phase
        ~label:(Printf.sprintf "epoch-%d" i)
        ~ticks:ticks_per_phase ~rate:(Const rate) tenants)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* Rates lower to integer job counts through [int_of_float]. NaN and
   infinities lower to nothing meaningful, and past 2^53 a float no
   longer holds every integer, so such values are rejected up front. *)
let max_value = 0x1p53

let validate_value what v =
  if Float.is_nan v || Float.abs v > max_value then
    Error (Printf.sprintf "%s: %g is not finite or exceeds 2^53" what v)
  else Ok ()

(* Linear and exp curves are monotone, so an endpoint is the peak. *)
let peak = function
  | Const v -> v
  | Linear { from_; to_ } | Exp { from_; to_ } -> Float.max from_ to_

let validate_curve what c =
  let* () =
    match c with
    | Const v -> validate_value what v
    | Linear { from_; to_ } | Exp { from_; to_ } ->
        let* () = validate_value what from_ in
        validate_value what to_
  in
  match c with
  | Const v when v < 0.0 -> Error (Printf.sprintf "%s: negative constant" what)
  | Exp { from_; to_ } when from_ <= 0.0 || to_ <= 0.0 ->
      Error (Printf.sprintf "%s: exp endpoints must be positive" what)
  | _ -> Ok ()

let validate_phase i p =
  let where what = Printf.sprintf "phase %d (%s): %s" i p.p_label what in
  let* () =
    if p.p_ticks <= 0 then Error (where "ticks must be positive") else Ok ()
  in
  let* () =
    Result.map_error where (validate_curve "rate" p.p_rate)
  in
  let* () =
    match p.p_burst with
    | None -> Ok ()
    | Some b ->
        if b.period <= 0 || b.width <= 0 || b.width > b.period then
          Error (where "burst needs 0 < width <= period")
        else if b.gain < 0.0 then Error (where "burst gain must be >= 0")
        else
          Result.map_error where
            (validate_value "burst rate" (peak p.p_rate *. b.gain))
  in
  let* () =
    let names = List.map (fun t -> t.t_name) p.p_tenants in
    if List.length (List.sort_uniq compare names) <> List.length names then
      Error (where "duplicate tenant name")
    else Ok ()
  in
  List.fold_left
    (fun acc t ->
      let* () = acc in
      let* () =
        Result.map_error where
          (validate_curve (Printf.sprintf "tenant %s share" t.t_name) t.t_share)
      in
      match Workloads.lookup t.t_workload with
      | Ok _ -> Ok ()
      | Error e -> Error (where (Workloads.lookup_error_to_string e)))
    (Ok ()) p.p_tenants

let validate s =
  let rec go i = function
    | [] -> Ok ()
    | p :: rest ->
        let* () = validate_phase i p in
        go (i + 1) rest
  in
  go 0 s

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

type event = {
  ev_tick : int;
  ev_phase : int;
  ev_label : string;
  ev_tenant : string;
  ev_workload : string;
  ev_seed : int;
}

let events ~seed s =
  (match validate s with
  | Ok () -> ()
  | Error e -> invalid_arg ("Schedule.events: " ^ e));
  let root = Rng.create ~seed in
  (* Labelled splits read the root without advancing it, so each
     tenant's stream depends only on (seed, tenant name) — never on
     which other tenants exist or in what order they were reached. *)
  let streams : (string, Rng.t) Hashtbl.t = Hashtbl.create 16 in
  let stream name =
    match Hashtbl.find_opt streams name with
    | Some r -> r
    | None ->
        let r = Rng.split ~label:("tenant:" ^ name) root in
        Hashtbl.add streams name r;
        r
  in
  let out = ref [] in
  let rate_carry = ref 0.0 in
  let tick = ref 0 in
  List.iteri
    (fun pi p ->
      for pt = 0 to p.p_ticks - 1 do
        let pos =
          if p.p_ticks <= 1 then 0.0
          else float_of_int pt /. float_of_int (p.p_ticks - 1)
        in
        let rate =
          let r = eval p.p_rate ~pos in
          match p.p_burst with
          | Some b when pt mod b.period < b.width -> r *. b.gain
          | _ -> r
        in
        (* Error-diffusion rate rounding: fractional rates accumulate in
           a carry and emit a job exactly at integer crossings, so the
           long-run arrival count matches the curve's integral without
           any randomness. *)
        rate_carry := !rate_carry +. Float.max 0.0 rate;
        let n = int_of_float (floor !rate_carry) in
        rate_carry := !rate_carry -. float_of_int n;
        if n > 0 && p.p_tenants <> [] then begin
          let shares =
            List.map
              (fun t -> (t, Float.max 0.0 (eval t.t_share ~pos)))
              p.p_tenants
          in
          let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 shares in
          if total > 0.0 then begin
            (* Largest-remainder apportionment of the n jobs across
               tenants. Quotas depend only on shares, and ties break on
               tenant name, so a tenant's per-tick count is invariant
               under reordering of the tenant list. *)
            let quotas =
              List.map
                (fun (t, w) ->
                  let q = float_of_int n *. w /. total in
                  let base = int_of_float (floor q) in
                  (t, base, q -. float_of_int base))
                shares
            in
            let assigned =
              List.fold_left (fun acc (_, b, _) -> acc + b) 0 quotas
            in
            let remainder = n - assigned in
            let order =
              List.stable_sort
                (fun (ta, _, fa) (tb, _, fb) ->
                  match compare fb fa with
                  | 0 -> compare ta.t_name tb.t_name
                  | c -> c)
                quotas
            in
            let bonus = Hashtbl.create 8 in
            List.iteri
              (fun i (t, _, _) ->
                if i < remainder then Hashtbl.replace bonus t.t_name ())
              order;
            List.iter
              (fun (t, base, _) ->
                let count =
                  base + (if Hashtbl.mem bonus t.t_name then 1 else 0)
                in
                let rng = stream t.t_name in
                for _ = 1 to count do
                  out :=
                    {
                      ev_tick = !tick;
                      ev_phase = pi;
                      ev_label = p.p_label;
                      ev_tenant = t.t_name;
                      ev_workload = t.t_workload;
                      ev_seed = Rng.int_in rng 1 1_000_000;
                    }
                    :: !out
                done)
              quotas
          end
        end;
        incr tick
      done)
    s;
  List.rev !out

let fnv_init = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let fnv_string h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

let digest evs =
  let h =
    List.fold_left
      (fun h e ->
        fnv_string h
          (Printf.sprintf "%d|%d|%s|%s|%s|%d\n" e.ev_tick e.ev_phase e.ev_label
             e.ev_tenant e.ev_workload e.ev_seed))
      fnv_init evs
  in
  Printf.sprintf "%016Lx" h

(* ------------------------------------------------------------------ *)
(* Mix-spec text format                                                *)
(* ------------------------------------------------------------------ *)

let curve_to_spec = function
  | Const v -> Printf.sprintf "%g" v
  | Linear { from_; to_ } -> Printf.sprintf "ramp:%g:%g" from_ to_
  | Exp { from_; to_ } -> Printf.sprintf "exp:%g:%g" from_ to_

let parse_float s =
  match float_of_string_opt s with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "bad number %S" s)

let parse_curve s =
  match String.split_on_char ':' s with
  | [ v ] ->
      let* v = parse_float v in
      Ok (Const v)
  | [ "ramp"; a; b ] ->
      let* from_ = parse_float a in
      let* to_ = parse_float b in
      Ok (Linear { from_; to_ })
  | [ "exp"; a; b ] ->
      let* from_ = parse_float a in
      let* to_ = parse_float b in
      Ok (Exp { from_; to_ })
  | _ -> Error (Printf.sprintf "bad curve %S (want N | ramp:A:B | exp:A:B)" s)

let parse_tenant s =
  let head, curve_s =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
        ( String.sub s 0 i,
          Some (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  let workload, name =
    match String.index_opt head '@' with
    | None -> (head, head)
    | Some i ->
        ( String.sub head 0 i,
          String.sub head (i + 1) (String.length head - i - 1) )
  in
  if workload = "" || name = "" then Error (Printf.sprintf "bad tenant %S" s)
  else
    let* share =
      match curve_s with None -> Ok (Const 1.0) | Some c -> parse_curve c
    in
    Ok { t_name = name; t_workload = workload; t_share = share }

let parse_tenants s =
  let parts = String.split_on_char ',' s in
  List.fold_left
    (fun acc part ->
      let* acc = acc in
      let* t = parse_tenant part in
      Ok (t :: acc))
    (Ok []) parts
  |> Result.map List.rev

let parse_burst s =
  match String.split_on_char ':' s with
  | [ p; w; g ] -> (
      match (int_of_string_opt p, int_of_string_opt w, parse_float g) with
      | Some period, Some width, Ok gain -> Ok { period; width; gain }
      | _ -> Error (Printf.sprintf "bad burst %S" s))
  | _ -> Error (Printf.sprintf "bad burst %S (want period:width:gain)" s)

let parse_kv tok =
  match String.index_opt tok '=' with
  | None -> Error (Printf.sprintf "expected key=value, got %S" tok)
  | Some i ->
      Ok
        ( String.sub tok 0 i,
          String.sub tok (i + 1) (String.length tok - i - 1) )

let parse_phase_line ~pause_only tokens =
  match tokens with
  | label :: kvs ->
      let* kvs =
        List.fold_left
          (fun acc tok ->
            let* acc = acc in
            let* kv = parse_kv tok in
            Ok (kv :: acc))
          (Ok []) kvs
      in
      let find k = List.assoc_opt k kvs in
      let* ticks =
        match find "ticks" with
        | Some v -> (
            match int_of_string_opt v with
            | Some n -> Ok n
            | None -> Error (Printf.sprintf "bad ticks %S" v))
        | None -> Error "missing ticks="
      in
      if pause_only then
        match kvs with
        | [ (_, _) ] -> Ok (pause ~label ~ticks)
        | _ -> Error "pause takes only ticks="
      else
        let* rate =
          match find "rate" with
          | Some v -> parse_curve v
          | None -> Error "missing rate="
        in
        let* burst =
          match find "burst" with
          | None -> Ok None
          | Some v ->
              let* b = parse_burst v in
              Ok (Some b)
        in
        let* tenants =
          match find "tenants" with
          | Some v -> parse_tenants v
          | None -> Error "missing tenants="
        in
        Ok (phase ?burst ~label ~ticks ~rate tenants)
  | [] -> Error "missing phase label"

let of_spec text =
  let lines = String.split_on_char '\n' text in
  let* phases =
    List.fold_left
      (fun acc (lineno, line) ->
        let* acc = acc in
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let tokens =
          String.split_on_char ' ' (String.trim line)
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun t -> t <> "")
        in
        match tokens with
        | [] -> Ok acc
        | (("phase" | "pause") as directive) :: rest ->
            let* p =
              Result.map_error
                (Printf.sprintf "line %d: %s" lineno)
                (let* p =
                   parse_phase_line ~pause_only:(directive = "pause") rest
                 in
                 let* () = validate_phase (List.length acc) p in
                 Ok p)
            in
            Ok (p :: acc)
        | tok :: _ ->
            Error
              (Printf.sprintf "line %d: unknown directive %S" lineno tok))
      (Ok [])
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  Ok (List.rev phases)

let to_spec s =
  let buf = Buffer.create 256 in
  List.iter
    (fun p ->
      if p.p_rate = Const 0.0 && p.p_tenants = [] then
        Buffer.add_string buf
          (Printf.sprintf "pause %s ticks=%d\n" p.p_label p.p_ticks)
      else begin
        Buffer.add_string buf
          (Printf.sprintf "phase %s ticks=%d rate=%s" p.p_label p.p_ticks
             (curve_to_spec p.p_rate));
        (match p.p_burst with
        | None -> ()
        | Some b ->
            Buffer.add_string buf
              (Printf.sprintf " burst=%d:%d:%g" b.period b.width b.gain));
        let tenant_spec t =
          let head =
            if t.t_name = t.t_workload then t.t_workload
            else t.t_workload ^ "@" ^ t.t_name
          in
          match t.t_share with
          | Const 1.0 -> head
          | c -> head ^ ":" ^ curve_to_spec c
        in
        Buffer.add_string buf
          (" tenants="
          ^ String.concat "," (List.map tenant_spec p.p_tenants)
          ^ "\n")
      end)
    s;
  Buffer.contents buf
