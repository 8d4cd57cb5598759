type class_state = {
  mutable run_cursor : Addr.t; (* next free byte in the class's current run *)
  mutable run_limit : Addr.t;
  mutable free_list : Addr.t list; (* LIFO reuse, like a tcache bin *)
}

(* Arena chunks are 2 MiB, jemalloc's default chunk size. *)
let chunk_size = 2 lsl 20

type state = {
  vmem : Vmem.t;
  classes : class_state array;
  mutable chunk_cursor : Addr.t; (* next free byte in the current arena chunk *)
  mutable chunk_limit : Addr.t;
  table : Alloc_iface.Live_table.table;
  large : (Addr.t, int) Hashtbl.t; (* large allocation -> mapped size *)
}

let run_objects = 64
(* Objects per fresh run: enough that same-class allocations made together
   land contiguously, small enough that runs stay page-scale. *)

let fresh_chunk st =
  let base = Vmem.mmap st.vmem ~size:chunk_size ~align:Vmem.page_size in
  st.chunk_cursor <- base;
  st.chunk_limit <- base + chunk_size

let carve_run st bytes =
  let bytes = Addr.align_up bytes Vmem.page_size in
  if st.chunk_cursor + bytes > st.chunk_limit then fresh_chunk st;
  let base = st.chunk_cursor in
  st.chunk_cursor <- base + bytes;
  base

let malloc_small st cls n =
  let cs = st.classes.(cls) in
  let size = Size_class.size_of_class cls in
  let addr =
    match cs.free_list with
    | a :: rest ->
        cs.free_list <- rest;
        a
    | [] ->
        if cs.run_cursor + size > cs.run_limit then begin
          let run_bytes = Int.max Vmem.page_size (size * run_objects) in
          let base = carve_run st run_bytes in
          cs.run_cursor <- base;
          cs.run_limit <- base + Addr.align_up run_bytes Vmem.page_size
        end;
        let a = cs.run_cursor in
        cs.run_cursor <- a + size;
        a
  in
  Alloc_iface.Live_table.on_malloc st.table addr ~requested:n ~reserved:size;
  addr

let malloc_large st n =
  let mapped = Addr.align_up (Int.max n 1) Vmem.page_size in
  let addr = Vmem.mmap st.vmem ~size:mapped ~align:Vmem.page_size in
  Hashtbl.replace st.large addr mapped;
  Alloc_iface.Live_table.on_malloc st.table addr ~requested:n ~reserved:mapped;
  addr

let malloc st n =
  if n < 0 then invalid_arg "Jemalloc_sim.malloc: negative size";
  match Size_class.class_of_size n with
  | Some cls -> malloc_small st cls n
  | None -> malloc_large st n

let free st addr =
  if addr <> Addr.null then begin
    let _requested, reserved = Alloc_iface.Live_table.on_free st.table addr in
    match Hashtbl.find_opt st.large addr with
    | Some _mapped ->
        Hashtbl.remove st.large addr;
        Vmem.munmap st.vmem addr
    | None -> (
        match Size_class.class_of_size reserved with
        | Some cls ->
            let cs = st.classes.(cls) in
            cs.free_list <- addr :: cs.free_list
        | None ->
            Alloc_iface.alloc_error ~allocator:"jemalloc-sim" ~op:"free"
              ~addr "corrupt size metadata")
  end

let create vmem =
  let st =
    {
      vmem;
      classes =
        Array.init Size_class.nclasses (fun _ ->
            { run_cursor = Addr.null; run_limit = Addr.null; free_list = [] });
      chunk_cursor = Addr.null;
      chunk_limit = Addr.null;
      table = Alloc_iface.Live_table.create ~name:"jemalloc-sim" ();
      large = Hashtbl.create 64;
    }
  in
  let reserved_size addr =
    Option.map snd (Alloc_iface.Live_table.find st.table addr)
  in
  let rec self =
    lazy
      {
        Alloc_iface.name = "jemalloc-sim";
        malloc = (fun n -> malloc st n);
        free = (fun a -> free st a);
        realloc = (fun old n -> Alloc_iface.default_realloc self reserved_size old n);
        usable_size = reserved_size;
        stats = (fun () -> Alloc_iface.Live_table.stats st.table);
      }
  in
  Lazy.force self
