let header = 16
let min_chunk = 32

module Chunk_map = Map.Make (Int)

module Free_set = Set.Make (struct
  type t = int * Addr.t (* chunk size, chunk base *)

  let compare = compare
end)

type chunk = { size : int; free : bool }

type state = {
  heap_limit : Addr.t;
  mutable top : Addr.t; (* first byte never yet carved into a chunk *)
  mutable chunks : chunk Chunk_map.t; (* base address -> chunk *)
  mutable free_set : Free_set.t;
  table : Alloc_iface.Live_table.table;
}

let align16 n = Addr.align_up n 16

let remove_free st base size =
  st.free_set <- Free_set.remove (size, base) st.free_set;
  st.chunks <- Chunk_map.remove base st.chunks

let add_free st base size =
  st.chunks <- Chunk_map.add base { size; free = true } st.chunks;
  st.free_set <- Free_set.add (size, base) st.free_set

let add_used st base size =
  st.chunks <- Chunk_map.add base { size; free = false } st.chunks

let malloc st n =
  if n < 0 then invalid_arg "Ptmalloc_sim.malloc: negative size";
  let need = Int.max min_chunk (align16 (Int.max n 1 + header)) in
  let base =
    (* Best fit: smallest free chunk that can hold the request. *)
    match Free_set.find_first_opt (fun (sz, _) -> sz >= need) st.free_set with
    | Some (sz, base) ->
        remove_free st base sz;
        if sz - need >= min_chunk then begin
          add_used st base need;
          add_free st (base + need) (sz - need)
        end
        else add_used st base sz;
        base
    | None ->
        if st.top + need > st.heap_limit then
          Alloc_iface.alloc_error ~allocator:"ptmalloc-sim" ~op:"malloc"
            "simulated heap exhausted";
        let base = st.top in
        st.top <- base + need;
        add_used st base need;
        base
  in
  let size = (Chunk_map.find base st.chunks).size in
  let payload = base + header in
  Alloc_iface.Live_table.on_malloc st.table payload ~requested:n
    ~reserved:(size - header);
  payload

let free st payload =
  if payload <> Addr.null then begin
    ignore (Alloc_iface.Live_table.on_free st.table payload);
    let base = payload - header in
    let { size; free = was_free } =
      match Chunk_map.find_opt base st.chunks with
      | Some c -> c
      | None ->
          Alloc_iface.alloc_error ~allocator:"ptmalloc-sim" ~op:"free"
            ~addr:payload "corrupt chunk header"
    in
    if was_free then
      Alloc_iface.alloc_error ~allocator:"ptmalloc-sim" ~op:"free"
        ~addr:payload "double free";
    st.chunks <- Chunk_map.remove base st.chunks;
    (* Coalesce with the following chunk. *)
    let base, size =
      match Chunk_map.find_opt (base + size) st.chunks with
      | Some { size = nsize; free = true } ->
          remove_free st (base + size) nsize;
          (base, size + nsize)
      | _ -> (base, size)
    in
    (* Coalesce with the preceding chunk. *)
    let base, size =
      match Chunk_map.find_last_opt (fun a -> a < base) st.chunks with
      | Some (pbase, { size = psize; free = true }) when pbase + psize = base ->
          remove_free st pbase psize;
          (pbase, size + psize)
      | _ -> (base, size)
    in
    if base + size = st.top then
      (* The freed chunk borders the top of the heap: give it back. *)
      st.top <- base
    else add_free st base size
  end

let heap_size = 256 lsl 20

let create vmem =
  let heap_base = Vmem.mmap vmem ~size:heap_size ~align:Vmem.page_size in
  let st =
    {
      heap_limit = heap_base + heap_size;
      top = heap_base;
      chunks = Chunk_map.empty;
      free_set = Free_set.empty;
      table = Alloc_iface.Live_table.create ~name:"ptmalloc-sim" ();
    }
  in
  let reserved_size addr =
    Option.map snd (Alloc_iface.Live_table.find st.table addr)
  in
  let rec self =
    lazy
      {
        Alloc_iface.name = "ptmalloc-sim";
        malloc = (fun n -> malloc st n);
        free = (fun a -> free st a);
        realloc = (fun old n -> Alloc_iface.default_realloc self reserved_size old n);
        usable_size = reserved_size;
        stats = (fun () -> Alloc_iface.Live_table.stats st.table);
      }
  in
  Lazy.force self
