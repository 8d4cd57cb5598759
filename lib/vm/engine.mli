(** Compatibility shim over {!Interp}, kept only for the benchmark
    directory ([halobench/]), which calls [Engine.create ~kind:Interp],
    [Engine.run] and [Engine.instructions]. {!Interp} is the only
    execution engine; everything else calls it directly. *)

type kind = Interp
type t

val create :
  ?kind:kind ->
  ?seed:int ->
  ?hooks:Interp.hooks ->
  ?patches:(Ir.site * int) list ->
  ?env:Exec_env.t ->
  ?memcheck:Vmem.t ->
  ?obs:Obs.t ->
  program:Ir.program ->
  alloc:Alloc_iface.t ->
  unit ->
  t
(** {!Interp.create}; [kind] is ignored. *)

val run : t -> int
val instructions : t -> int
