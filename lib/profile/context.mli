(** Interned allocation contexts.

    An allocation context is a reduced call-stack: the sequence of call
    sites from outermost frame to the allocation site itself (§4.1). The
    affinity graph, grouping and identification stages all key on contexts,
    so contexts are interned to dense integer ids. *)

type id = int
(** Dense context identifier, 0-based in order of first occurrence. *)

type table

val create : unit -> table

val intern : table -> Ir.site array -> id
(** Intern a context (the array is copied if fresh). Equal site sequences
    receive equal ids. *)

val sites : table -> id -> Ir.site array
(** The context's call sites, outermost first. Do not mutate. *)

val alloc_site : table -> id -> Ir.site
(** The innermost element — the immediate call site of the allocation
    procedure, which is all the hot-data-streams comparator gets to see. *)

val count : table -> int
val label : table -> (Ir.site -> string) -> id -> string
(** Render as ["a -> b -> c"] using a site labeller
    (e.g. [Ir.site_label program]). *)

val fold : table -> init:'a -> f:('a -> id -> Ir.site array -> 'a) -> 'a
