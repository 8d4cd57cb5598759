type stats = {
  mallocs : int;
  frees : int;
  live_bytes : int;
  peak_live_bytes : int;
  forwarded : int;
}

type t = {
  name : string;
  malloc : int -> Addr.t;
  free : Addr.t -> unit;
  realloc : Addr.t -> int -> Addr.t;
  usable_size : Addr.t -> int option;
  stats : unit -> stats;
}

exception
  Alloc_error of {
    allocator : string;
    op : string;
    addr : Addr.t option;
    detail : string;
  }

let () =
  Printexc.register_printer (function
    | Alloc_error { allocator; op; addr; detail } ->
        Some
          (Printf.sprintf "Alloc_error(%s.%s%s: %s)" allocator op
             (match addr with
             | None -> ""
             | Some a -> " at " ^ Addr.to_hex a)
             detail)
    | _ -> None)

let alloc_error ~allocator ~op ?addr detail =
  raise (Alloc_error { allocator; op; addr; detail })

module Live_table = struct
  type table = {
    name : string;
    live : (Addr.t, int * int) Hashtbl.t; (* addr -> requested, reserved *)
    mutable mallocs : int;
    mutable frees : int;
    mutable live_bytes : int;
    mutable peak_live_bytes : int;
    mutable forwarded : int;
  }

  let create ~name () =
    {
      name;
      live = Hashtbl.create 1024;
      mallocs = 0;
      frees = 0;
      live_bytes = 0;
      peak_live_bytes = 0;
      forwarded = 0;
    }

  let on_malloc t addr ~requested ~reserved =
    if addr = Addr.null then
      alloc_error ~allocator:t.name ~op:"malloc"
        "allocator returned the null address";
    if Hashtbl.mem t.live addr then
      alloc_error ~allocator:t.name ~op:"malloc" ~addr
        "allocator returned an already-live address";
    Hashtbl.replace t.live addr (requested, reserved);
    t.mallocs <- t.mallocs + 1;
    t.live_bytes <- t.live_bytes + requested;
    if t.live_bytes > t.peak_live_bytes then t.peak_live_bytes <- t.live_bytes

  let on_free t addr =
    match Hashtbl.find_opt t.live addr with
    | None ->
        alloc_error ~allocator:t.name ~op:"free" ~addr
          "free of unknown or already-freed address"
    | Some (requested, reserved) ->
        Hashtbl.remove t.live addr;
        t.frees <- t.frees + 1;
        t.live_bytes <- t.live_bytes - requested;
        (requested, reserved)

  let find t addr = Hashtbl.find_opt t.live addr
  let count_forwarded t = t.forwarded <- t.forwarded + 1

  let stats t =
    {
      mallocs = t.mallocs;
      frees = t.frees;
      live_bytes = t.live_bytes;
      peak_live_bytes = t.peak_live_bytes;
      forwarded = t.forwarded;
    }
end

let default_realloc self reserved_size old n =
  let self = Lazy.force self in
  if old = Addr.null then self.malloc n
  else
    match reserved_size old with
    | None ->
        alloc_error ~allocator:self.name ~op:"realloc" ~addr:old
          "realloc of unknown address"
    | Some reserved when n <= reserved && n > 0 ->
        (* Shrinking (or growing within the reserved block) keeps the block
           in place, as real allocators do for same-size-class reallocs. *)
        old
    | Some _ ->
        let fresh = self.malloc n in
        self.free old;
        fresh
