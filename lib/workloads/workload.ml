type scale = Test | Train | Ref

type t = {
  name : string;
  description : string;
  make : scale -> Ir.program;
  halo_allocator : Group_alloc.config -> Group_alloc.config;
  halo_grouping : Grouping.params -> Grouping.params;
  in_frag_table : bool;
}

let plain ~name ~description ~make ?(halo_allocator = Fun.id)
    ?(halo_grouping = Fun.id) ?(in_frag_table = true) () =
  { name; description; make; halo_allocator; halo_grouping; in_frag_table }

let pipeline_config w (base : Pipeline.config) =
  {
    base with
    Pipeline.grouping = w.halo_grouping base.Pipeline.grouping;
    allocator = w.halo_allocator base.Pipeline.allocator;
  }
