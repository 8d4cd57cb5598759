(** Combinators for authoring workload programs.

    A thin, readable layer over {!Ir} used by the 11 benchmark analogs in
    [halo_workloads] and by the examples. Sites default to 0 and are
    assigned by {!Ir.finalize} (via {!program}); pass [~site] only when a
    test needs to refer to a site by a known address. *)

(** {1 Expressions} *)

val i : int -> Ir.expr
val v : string -> Ir.expr
val g : string -> Ir.expr
val rand : Ir.expr -> Ir.expr
val not_ : Ir.expr -> Ir.expr

val ( +: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( -: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( *: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( /: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( %: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( <: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( <=: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( >: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( >=: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( =: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( <>: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( &&: ) : Ir.expr -> Ir.expr -> Ir.expr
val ( ||: ) : Ir.expr -> Ir.expr -> Ir.expr

(** {1 Statements} *)

val let_ : string -> Ir.expr -> Ir.stmt
val gassign : string -> Ir.expr -> Ir.stmt
val malloc : ?site:Ir.site -> string -> Ir.expr -> Ir.stmt
val calloc : ?site:Ir.site -> string -> Ir.expr -> Ir.expr -> Ir.stmt
val realloc_ : ?site:Ir.site -> string -> Ir.expr -> Ir.expr -> Ir.stmt
val free_ : Ir.expr -> Ir.stmt

val load : ?bytes:int -> string -> Ir.expr -> Ir.expr -> Ir.stmt
(** [load v ptr off] : [v = *(ptr+off)]; [bytes] defaults to 8. *)

val store : ?bytes:int -> Ir.expr -> Ir.expr -> Ir.expr -> Ir.stmt
(** [store ptr off value]. *)

val call : ?site:Ir.site -> ?dst:string -> string -> Ir.expr list -> Ir.stmt
val if_ : Ir.expr -> Ir.stmt list -> Ir.stmt list -> Ir.stmt
val while_ : Ir.expr -> Ir.stmt list -> Ir.stmt

val for_ : string -> from:Ir.expr -> below:Ir.expr -> Ir.stmt list -> Ir.stmt list
(** [for_ "i" ~from ~below body] expands to a counted loop; returns the
    init + loop statements (splice with [@]). *)

val return_ : Ir.expr -> Ir.stmt
val compute : int -> Ir.stmt

(** {1 Programs} *)

val func : string -> string list -> Ir.stmt list -> Ir.func
val program : main:string -> Ir.func list -> Ir.program
