let header_bytes = 64
(* Reserved at the start of every chunk for its header (group id,
   live_regions, bump cursor). Regions never overlap it, so masking a
   region pointer down to the chunk base always lands on the header. *)

type backend = Bump_only | Sharded_free_lists

type spare_policy = Keep_spare of int | Always_reuse

type config = {
  slab_size : int;
  chunk_size : int;
  max_grouped_size : int;
  spare_policy : spare_policy;
  backend : backend;
  color_groups : bool;
}

let default_config =
  {
    slab_size = 64 lsl 20;
    chunk_size = 1 lsl 20;
    max_grouped_size = 4096;
    spare_policy = Keep_spare 1;
    backend = Bump_only;
    color_groups = false;
  }

type chunk = {
  base : Addr.t;
  mutable group : int;
  mutable bump : int; (* offset of the next free byte, from base *)
  mutable live_regions : int;
  mutable hw_pages : int; (* pages made resident by the bump high-water *)
}

(* Pre-resolved telemetry handles; [None] when observability is disabled. *)
type gobs = {
  o : Obs.t option; (* always [Some]; kept as option for Obs.event *)
  m_grouped : Metrics.counter; (* alloc.grouped_mallocs *)
  m_forwarded : Metrics.counter; (* alloc.fallback_mallocs *)
  m_carved : Metrics.counter; (* alloc.chunks.carved *)
  m_reused : Metrics.counter; (* alloc.chunks.reused *)
  m_purged : Metrics.counter; (* alloc.chunks.purged *)
  m_freelist : Metrics.counter; (* alloc.freelist.reuses *)
  g_spare : Metrics.gauge; (* alloc.chunks.spare *)
  h_occupancy : Metrics.histogram; (* alloc.pool.occupancy *)
  mutable until_sample : int;
}

type state = {
  vmem : Vmem.t;
  cfg : config;
  classify : size:int -> int option;
  fallback : Alloc_iface.t;
  table : Alloc_iface.Live_table.table;
  chunks : (Addr.t, chunk) Hashtbl.t;
  current : (int, chunk) Hashtbl.t; (* group -> current chunk *)
  mutable spare : chunk list; (* empty, still resident *)
  mutable spare_count : int;
  mutable purged : chunk list; (* empty, pages returned to the OS *)
  mutable slab_cursor : Addr.t;
  mutable slab_limit : Addr.t;
  (* Sharded free lists: (group, reserved size) -> freed region stack. *)
  shards : (int * int, Addr.t list ref) Hashtbl.t;
  gobs : gobs option;
  mutable carved : int;
  mutable reuses : int;
  mutable freelist_reuses : int;
  mutable grouped_mallocs : int;
  mutable resident : int; (* allocator-resident bytes across group chunks *)
  mutable peak_resident : int;
  mutable live_at_peak : int;
}

type t = { st : state; iface : Alloc_iface.t }

let page = Vmem.page_size

let grow_residency st chunk =
  (* Bump allocation touches pages in order; account for pages newly
     covered by [0, bump). *)
  let pages = (chunk.bump + page - 1) / page in
  if pages > chunk.hw_pages then begin
    let delta = (pages - chunk.hw_pages) * page in
    chunk.hw_pages <- pages;
    st.resident <- st.resident + delta;
    if st.resident > st.peak_resident then begin
      st.peak_resident <- st.resident;
      st.live_at_peak <- (Alloc_iface.Live_table.stats st.table).Alloc_iface.live_bytes
    end
  end

(* Per-group colour: a line-granular offset into the chunk so group g's
   first regions map to a different L1 set than group g'. Bounded well
   below the chunk size. *)
let color_offset st group =
  if st.cfg.color_groups then 64 * (group * 7 mod 61) else 0

let reset_chunk st chunk group =
  chunk.group <- group;
  chunk.bump <- header_bytes + color_offset st group;
  chunk.live_regions <- 0;
  grow_residency st chunk

let spare_gauge st =
  match st.gobs with
  | None -> ()
  | Some g -> Metrics.set g.g_spare (float_of_int st.spare_count)

let acquire_chunk st group =
  let chunk =
    match st.spare with
    | c :: rest ->
        st.spare <- rest;
        st.spare_count <- st.spare_count - 1;
        st.reuses <- st.reuses + 1;
        (match st.gobs with None -> () | Some g -> Metrics.incr g.m_reused);
        spare_gauge st;
        c
    | [] -> (
        match st.purged with
        | c :: rest ->
            st.purged <- rest;
            st.reuses <- st.reuses + 1;
            (match st.gobs with None -> () | Some g -> Metrics.incr g.m_reused);
            c
        | [] ->
            if st.slab_cursor + st.cfg.chunk_size > st.slab_limit then begin
              let slab =
                Vmem.mmap st.vmem ~size:st.cfg.slab_size ~align:st.cfg.chunk_size
              in
              st.slab_cursor <- slab;
              st.slab_limit <- slab + st.cfg.slab_size
            end;
            let base = st.slab_cursor in
            st.slab_cursor <- base + st.cfg.chunk_size;
            st.carved <- st.carved + 1;
            (match st.gobs with None -> () | Some g -> Metrics.incr g.m_carved);
            let c = { base; group; bump = 0; live_regions = 0; hw_pages = 0 } in
            Hashtbl.replace st.chunks base c;
            c)
  in
  reset_chunk st chunk group;
  Hashtbl.replace st.current group chunk;
  chunk

let shard st group reserved =
  let key = (group, reserved) in
  match Hashtbl.find_opt st.shards key with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.replace st.shards key l;
      l

(* Pools are sampled every [sample_every] grouped mallocs so trace
   volume stays bounded on allocation-heavy runs. *)
let sample_every = 256

(* One series point per group's current chunk: live regions, bump
   utilisation. *)
let sample_pools st g =
  Hashtbl.iter
    (fun group chunk ->
      Metrics.observe g.h_occupancy (float_of_int chunk.live_regions);
      Obs.event g.o ~name:"alloc.pool.occupancy"
        ~attrs:
          [
            ("group", Json.Int group);
            ( "bump_util",
              Json.Float
                (float_of_int chunk.bump /. float_of_int st.cfg.chunk_size) );
          ]
        (float_of_int chunk.live_regions))
    st.current;
  Obs.event g.o ~name:"alloc.chunks.spare" (float_of_int st.spare_count)

let gobs_on_malloc st =
  match st.gobs with
  | None -> ()
  | Some g ->
      Metrics.incr g.m_grouped;
      g.until_sample <- g.until_sample - 1;
      if g.until_sample = 0 then begin
        g.until_sample <- sample_every;
        sample_pools st g
      end

let group_malloc st group n =
  let reserved = Addr.align_up (Int.max n 1) 8 in
  (* Sharded backend: reuse a freed region of the exact reserved size from
     this group before advancing any bump cursor. *)
  match
    if st.cfg.backend = Sharded_free_lists then
      match !(shard st group reserved) with
      | addr :: rest ->
          (shard st group reserved) := rest;
          Some addr
      | [] -> None
    else None
  with
  | Some addr ->
      let base = addr land lnot (st.cfg.chunk_size - 1) in
      (match Hashtbl.find_opt st.chunks base with
      | Some chunk -> chunk.live_regions <- chunk.live_regions + 1
      | None -> failwith "Group_alloc: freed region lost its chunk");
      st.grouped_mallocs <- st.grouped_mallocs + 1;
      st.freelist_reuses <- st.freelist_reuses + 1;
      (match st.gobs with None -> () | Some g -> Metrics.incr g.m_freelist);
      gobs_on_malloc st;
      Alloc_iface.Live_table.on_malloc st.table addr ~requested:n ~reserved;
      addr
  | None ->
  let chunk =
    match Hashtbl.find_opt st.current group with
    | Some c when c.bump + reserved <= st.cfg.chunk_size -> c
    | _ -> acquire_chunk st group
  in
  if chunk.bump + reserved > st.cfg.chunk_size then
    failwith "Group_alloc: request exceeds chunk capacity";
  let addr = chunk.base + chunk.bump in
  chunk.bump <- chunk.bump + reserved;
  chunk.live_regions <- chunk.live_regions + 1;
  st.grouped_mallocs <- st.grouped_mallocs + 1;
  gobs_on_malloc st;
  Alloc_iface.Live_table.on_malloc st.table addr ~requested:n ~reserved;
  grow_residency st chunk;
  addr

let drop_chunk_shards st chunk =
  (* A drained chunk is about to be rewound or recycled: regions from it
     must leave the free lists or they would alias fresh bump space. *)
  Hashtbl.iter
    (fun (group, _) l ->
      if group = chunk.group then
        l :=
          List.filter
            (fun a -> a land lnot (st.cfg.chunk_size - 1) <> chunk.base)
            !l)
    st.shards

let recycle_chunk st chunk =
  match st.cfg.spare_policy with
  | Always_reuse ->
      st.spare <- chunk :: st.spare;
      st.spare_count <- st.spare_count + 1;
      spare_gauge st
  | Keep_spare k ->
      if st.spare_count < k then begin
        st.spare <- chunk :: st.spare;
        st.spare_count <- st.spare_count + 1;
        spare_gauge st
      end
      else begin
        (* Purge the chunk's dirty pages back to the OS. *)
        Vmem.purge st.vmem chunk.base st.cfg.chunk_size;
        st.resident <- st.resident - (chunk.hw_pages * page);
        chunk.hw_pages <- 0;
        st.purged <- chunk :: st.purged;
        match st.gobs with None -> () | Some g -> Metrics.incr g.m_purged
      end

let grouped_free st addr =
  let _requested, reserved = Alloc_iface.Live_table.on_free st.table addr in
  let base = addr land lnot (st.cfg.chunk_size - 1) in
  let chunk =
    match Hashtbl.find_opt st.chunks base with
    | Some c -> c
    | None -> failwith "Group_alloc: freed region has no chunk header"
  in
  if chunk.live_regions <= 0 then
    failwith "Group_alloc: chunk live_regions underflow";
  chunk.live_regions <- chunk.live_regions - 1;
  if st.cfg.backend = Sharded_free_lists && chunk.live_regions > 0 then begin
    let l = shard st chunk.group reserved in
    l := addr :: !l
  end;
  if chunk.live_regions = 0 then
    match Hashtbl.find_opt st.current chunk.group with
    | Some cur when cur == chunk ->
        (* The group's active chunk drained: rewind the bump cursor and
           keep using it in place. *)
        drop_chunk_shards st chunk;
        chunk.bump <- header_bytes + color_offset st chunk.group
    | _ ->
        drop_chunk_shards st chunk;
        recycle_chunk st chunk

let is_grouped st addr = Option.is_some (Alloc_iface.Live_table.find st.table addr)

let malloc st n =
  if n < 0 then invalid_arg "Group_alloc.malloc: negative size";
  let groupable = Int.max n 1 <= Int.min st.cfg.max_grouped_size (page - 1) in
  match if groupable then st.classify ~size:n else None with
  | Some g -> group_malloc st g n
  | None ->
      Alloc_iface.Live_table.count_forwarded st.table;
      (match st.gobs with None -> () | Some g -> Metrics.incr g.m_forwarded);
      st.fallback.Alloc_iface.malloc n

let free st addr =
  if addr <> Addr.null then
    if is_grouped st addr then grouped_free st addr
    else st.fallback.Alloc_iface.free addr

let usable_size st addr =
  match Alloc_iface.Live_table.find st.table addr with
  | Some (_, reserved) -> Some reserved
  | None -> st.fallback.Alloc_iface.usable_size addr

let realloc st old n =
  if old = Addr.null then malloc st n
  else if is_grouped st old then
    match Alloc_iface.Live_table.find st.table old with
    | Some (_, reserved) when n > 0 && n <= reserved -> old
    | _ ->
        let fresh = malloc st n in
        grouped_free st old;
        fresh
  else begin
    (* Fallback-owned region. If the new size would still be forwarded,
       let the fallback realloc in place; otherwise migrate into a group. *)
    let groupable = Int.max n 1 <= Int.min st.cfg.max_grouped_size (page - 1) in
    match if groupable then st.classify ~size:n else None with
    | None -> st.fallback.Alloc_iface.realloc old n
    | Some g ->
        let fresh = group_malloc st g n in
        st.fallback.Alloc_iface.free old;
        fresh
  end

type frag_stats = {
  peak_resident : int;
  live_at_peak : int;
  frag_bytes : int;
  frag_pct : float;
}

let config_error config =
  if not (Addr.is_power_of_two config.chunk_size) then
    Some "chunk_size must be a power of two"
  else if config.chunk_size < 2 * header_bytes then
    Some "chunk_size too small"
  else if config.color_groups && config.chunk_size < 8192 then
    Some "chunk too small for colouring"
  else if config.slab_size mod config.chunk_size <> 0 then
    Some "slab_size must be a multiple of chunk_size"
  else None

let create ?(config = default_config) ?obs ~classify ~fallback vmem =
  Option.iter
    (fun e -> invalid_arg ("Group_alloc.create: " ^ e))
    (config_error config);
  let st =
    {
      vmem;
      cfg = config;
      classify;
      fallback;
      table = Alloc_iface.Live_table.create ~name:"halo-group" ();
      chunks = Hashtbl.create 64;
      current = Hashtbl.create 16;
      shards = Hashtbl.create 64;
      gobs =
        Option.map
          (fun o ->
            let m = Obs.metrics o in
            {
              o = Some o;
              m_grouped = Metrics.counter m "alloc.grouped_mallocs";
              m_forwarded = Metrics.counter m "alloc.fallback_mallocs";
              m_carved = Metrics.counter m "alloc.chunks.carved";
              m_reused = Metrics.counter m "alloc.chunks.reused";
              m_purged = Metrics.counter m "alloc.chunks.purged";
              m_freelist = Metrics.counter m "alloc.freelist.reuses";
              g_spare = Metrics.gauge m "alloc.chunks.spare";
              h_occupancy = Metrics.histogram m "alloc.pool.occupancy";
              until_sample = sample_every;
            })
          obs;
      spare = [];
      spare_count = 0;
      purged = [];
      slab_cursor = Addr.null;
      slab_limit = Addr.null;
      carved = 0;
      reuses = 0;
      freelist_reuses = 0;
      grouped_mallocs = 0;
      resident = 0;
      peak_resident = 0;
      live_at_peak = 0;
    }
  in
  let iface =
    {
      Alloc_iface.name = "halo-group";
      malloc = (fun n -> malloc st n);
      free = (fun a -> free st a);
      realloc = (fun old n -> realloc st old n);
      usable_size = (fun a -> usable_size st a);
      stats = (fun () -> Alloc_iface.Live_table.stats st.table);
    }
  in
  { st; iface }

let iface t = t.iface

let frag_stats t =
  let st = t.st in
  if st.peak_resident = 0 then
    { peak_resident = 0; live_at_peak = 0; frag_bytes = 0; frag_pct = 0.0 }
  else
    let frag = st.peak_resident - st.live_at_peak in
    {
      peak_resident = st.peak_resident;
      live_at_peak = st.live_at_peak;
      frag_bytes = frag;
      frag_pct = float_of_int frag /. float_of_int st.peak_resident;
    }

let grouped_mallocs t = t.st.grouped_mallocs
let freelist_reuses t = t.st.freelist_reuses
let chunks_carved t = t.st.carved
let reuses t = t.st.reuses
