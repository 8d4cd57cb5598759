let slab_size = 1 lsl 20
let min_align = 8

type state = {
  vmem : Vmem.t;
  mutable cursor : Addr.t; (* next free byte in the current slab *)
  mutable limit : Addr.t; (* one past the end of the current slab *)
  table : Alloc_iface.Live_table.table;
}

let rec malloc st n =
  if n < 0 then invalid_arg "Bump.malloc: negative size";
  let reserved = Addr.align_up (Int.max n 1) min_align in
  if reserved > slab_size then
    (* Oversized requests get their own mapping. *)
    let addr = Vmem.mmap st.vmem ~size:reserved ~align:Vmem.page_size in
    let () = Alloc_iface.Live_table.on_malloc st.table addr ~requested:n ~reserved in
    addr
  else begin
    let base = Addr.align_up st.cursor min_align in
    if base + reserved > st.limit then begin
      let slab = Vmem.mmap st.vmem ~size:slab_size ~align:Vmem.page_size in
      st.cursor <- slab;
      st.limit <- slab + slab_size;
      malloc st n
    end
    else begin
      st.cursor <- base + reserved;
      Alloc_iface.Live_table.on_malloc st.table base ~requested:n ~reserved;
      base
    end
  end

let create vmem =
  let st =
    {
      vmem;
      cursor = Addr.null;
      limit = Addr.null;
      table = Alloc_iface.Live_table.create ~name:"bump" ();
    }
  in
  let reserved_size addr =
    Option.map snd (Alloc_iface.Live_table.find st.table addr)
  in
  let rec self =
    lazy
      {
        Alloc_iface.name = "bump";
        malloc = (fun n -> malloc st n);
        free =
          (fun addr ->
            if addr <> Addr.null then
              ignore (Alloc_iface.Live_table.on_free st.table addr));
        realloc = (fun old n -> Alloc_iface.default_realloc self reserved_size old n);
        usable_size = reserved_size;
        stats = (fun () -> Alloc_iface.Live_table.stats st.table);
      }
  in
  Lazy.force self
