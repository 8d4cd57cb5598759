type t = {
  dir : string;
  max_entries : int option;
  mu : Mutex.t;
  saved : int * int * int * int;
      (** (hits, misses, stores, evictions) persisted by earlier
          processes, read once at open. *)
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; stores : int; evictions : int }

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let stats_file dir = Filename.concat dir "stats.json"

let load_stats dir =
  let path = stats_file dir in
  if not (Sys.file_exists path) then None
  else
    match
      Json.of_string (In_channel.with_open_bin path In_channel.input_all)
    with
    | exception Sys_error _ -> None
    | Error _ -> None
    | Ok j -> (
        match
          ( Json.get_int "hits" j,
            Json.get_int "misses" j,
            Json.get_int "stores" j,
            Json.get_int "evictions" j )
        with
        | Ok hits, Ok misses, Ok stores, Ok evictions ->
            Some { hits; misses; stores; evictions }
        | _ -> None)

let create ?max_entries dir =
  mkdir_p dir;
  {
    dir;
    max_entries;
    mu = Mutex.create ();
    saved =
      (match load_stats dir with
      | Some s -> (s.hits, s.misses, s.stores, s.evictions)
      | None -> (0, 0, 0, 0));
    hits = 0;
    misses = 0;
    stores = 0;
    evictions = 0;
  }

let dir t = t.dir

let locked t f =
  Mutex.lock t.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mu) f

let stats t =
  locked t (fun () ->
      { hits = t.hits; misses = t.misses; stores = t.stores; evictions = t.evictions })

let hit_rate s =
  let lookups = s.hits + s.misses in
  if lookups = 0 then 0.0 else float_of_int s.hits /. float_of_int lookups

let lifetime_stats t =
  let s = stats t and bh, bm, bs, be = t.saved in
  {
    hits = s.hits + bh;
    misses = s.misses + bm;
    stores = s.stores + bs;
    evictions = s.evictions + be;
  }

let save_stats t =
  let s = lifetime_stats t in
  let j =
    Json.Obj
      [
        ("hits", Json.Int s.hits);
        ("misses", Json.Int s.misses);
        ("stores", Json.Int s.stores);
        ("evictions", Json.Int s.evictions);
      ]
  in
  match Filename.temp_file ~temp_dir:t.dir "stats-" ".tmp" with
  | exception Sys_error _ -> ()
  | tmp -> (
      try
        Out_channel.with_open_bin tmp (fun oc ->
            output_string oc (Json.to_string ~pretty:false j);
            output_char oc '\n');
        Sys.rename tmp (stats_file t.dir)
      with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))

let suffix = ".plan.bin"

let entry_path t ~program ~config =
  Filename.concat t.dir (program ^ "-" ^ config ^ suffix)

let entries t =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> []
  | names ->
      Array.to_list names
      |> List.filter (fun n -> Filename.check_suffix n suffix)
      |> List.map (fun n -> Filename.concat t.dir n)

let entry_names t = List.sort compare (List.map Filename.basename (entries t))

(* Drop oldest entries beyond the bound. Best-effort: a concurrently
   removed file is not an error. Entries sharing an mtime second are
   ordered by name — the tuple sort ties on the second component — so
   which entries survive is deterministic, not filesystem-order luck. *)
let evict t obs =
  match t.max_entries with
  | None -> ()
  | Some cap ->
      let aged =
        entries t
        |> List.filter_map (fun path ->
               match Unix.stat path with
               | s -> Some (s.Unix.st_mtime, Filename.basename path)
               | exception Unix.Unix_error _ -> None)
        |> List.sort compare
      in
      let excess = List.length aged - cap in
      if excess > 0 then begin
        List.filteri (fun i _ -> i < excess) aged
        |> List.iter (fun (_, name) ->
               try
                 Sys.remove (Filename.concat t.dir name);
                 Obs.count obs "store.cache.evictions" 1;
                 locked t (fun () -> t.evictions <- t.evictions + 1)
               with Sys_error _ -> ())
      end

let source t =
  let key program config =
    (Ir_digest.program program, Store.plan_config_digest config)
  in
  let lookup obs program config =
    let pd, cd = key program config in
    let path = entry_path t ~program:pd ~config:cd in
    let found =
      if Sys.file_exists path then
        match
          Result.bind
            (Store.read_plan ?obs ~expect_program:pd ~expect_config:cd path)
            (fun (_, plan) ->
              Result.map (fun () -> plan) (Store.check_sites program plan))
        with
        | Ok plan -> Some plan
        | Error _ -> None (* corrupt/stale entry: treat as a miss *)
      else None
    in
    (match found with
    | Some _ ->
        Obs.count obs "store.cache.hits" 1;
        locked t (fun () -> t.hits <- t.hits + 1)
    | None ->
        Obs.count obs "store.cache.misses" 1;
        locked t (fun () -> t.misses <- t.misses + 1));
    (* The serve-mode north star is specified in terms of hit rate over
       time: keep the registry's gauge current on every lookup. *)
    Obs.set_gauge obs "store.cache.hit_rate" (hit_rate (stats t));
    found
  in
  let store obs program config plan =
    let pd, cd = key program config in
    let tmp = Filename.temp_file ~temp_dir:t.dir "plan-" ".tmp" in
    match
      Store.write_plan ?obs ~path:tmp ~program_digest:pd plan
    with
    | Ok () ->
        Sys.rename tmp (entry_path t ~program:pd ~config:cd);
        Obs.count obs "store.cache.stores" 1;
        locked t (fun () -> t.stores <- t.stores + 1);
        evict t obs
    | Error _ -> ( try Sys.remove tmp with Sys_error _ -> ())
  in
  { Pipeline.lookup; store }
