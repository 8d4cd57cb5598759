let page_size = 4096

type mapping = { base : Addr.t; size : int }

type t = {
  mutable cursor : Addr.t;
  mappings : (Addr.t, mapping) Hashtbl.t; (* keyed by base *)
  resident : (int, unit) Hashtbl.t; (* keyed by page index *)
  mutable mmap_calls : int;
}

let create () =
  {
    cursor = 0x7f00_0000_0000;
    mappings = Hashtbl.create 64;
    resident = Hashtbl.create 4096;
    mmap_calls = 0;
  }

let mmap t ~size ~align =
  if size <= 0 then invalid_arg "Vmem.mmap: non-positive size";
  let align = max align page_size in
  if not (Addr.is_power_of_two align) then
    invalid_arg "Vmem.mmap: alignment must be a power of two";
  let size = Addr.align_up size page_size in
  let base = Addr.align_up t.cursor align in
  (* Leave a guard page between mappings so off-by-one allocator bugs fault
     in [touch] instead of silently landing in a neighbouring mapping. *)
  t.cursor <- base + size + page_size;
  Hashtbl.replace t.mappings base { base; size };
  t.mmap_calls <- t.mmap_calls + 1;
  base

let munmap t base =
  match Hashtbl.find_opt t.mappings base with
  | None -> invalid_arg "Vmem.munmap: unknown mapping base"
  | Some m ->
      Hashtbl.remove t.mappings base;
      let first = m.base / page_size and last = (m.base + m.size - 1) / page_size in
      for p = first to last do
        Hashtbl.remove t.resident p
      done

let find_mapping t addr =
  (* Mappings are few (slabs are large), so a linear scan is fine and keeps
     the structure simple. *)
  Hashtbl.fold
    (fun _ m acc ->
      match acc with
      | Some _ -> acc
      | None -> if addr >= m.base && addr < m.base + m.size then Some m else None)
    t.mappings None

let is_mapped t addr = Option.is_some (find_mapping t addr)

let touch t addr len =
  if len <= 0 then invalid_arg "Vmem.touch: non-positive length";
  (match find_mapping t addr with
  | Some m when addr + len <= m.base + m.size -> ()
  | _ ->
      failwith
        (Printf.sprintf "Vmem.touch: simulated segfault at %s (+%d bytes)"
           (Addr.to_hex addr) len));
  let first = addr / page_size and last = (addr + len - 1) / page_size in
  for p = first to last do
    if not (Hashtbl.mem t.resident p) then Hashtbl.replace t.resident p ()
  done

let purge t addr len =
  if len <= 0 then invalid_arg "Vmem.purge: non-positive length";
  (* Only whole pages strictly inside the range are purged, as madvise
     semantics round inward for partial pages. *)
  let first = (addr + page_size - 1) / page_size in
  let last = ((addr + len) / page_size) - 1 in
  for p = first to last do
    Hashtbl.remove t.resident p
  done

let resident_bytes t = Hashtbl.length t.resident * page_size

let resident_bytes_in t addr len =
  if len <= 0 then 0
  else begin
    let first = addr / page_size and last = (addr + len - 1) / page_size in
    let n = ref 0 in
    for p = first to last do
      if Hashtbl.mem t.resident p then incr n
    done;
    !n * page_size
  end

let mapped_bytes t = Hashtbl.fold (fun _ m acc -> acc + m.size) t.mappings 0
let mmap_calls t = t.mmap_calls
