(** The workload intermediate representation.

    HALO operates on x86-64 binaries; this reproduction operates on programs
    in a small imperative IR, which plays the role of the "target binary".
    The IR exposes exactly the observables HALO consumes:

    - {b call sites}: every call and every allocation statement carries a
      unique integer {!site} (a stand-in for the instruction address), which
      is what shadow stacks, allocation contexts, selectors and the
      rewriting pass all speak in terms of;
    - {b POSIX.1 allocation intrinsics} ([malloc]/[calloc]/[realloc]/[free])
      dispatched through a pluggable allocator;
    - {b loads and stores} with byte sizes, from which the address trace is
      generated.

    Programs are built with {!Dsl} and must be passed through {!finalize},
    which assigns site addresses and validates the program, before
    execution. *)

type site = int
(** A call-site "address". Assigned by {!finalize}; unique per syntactic
    call/allocation statement, stable across runs of the same program. *)

type binop =
  | Add
  | Sub
  | Mul
  | Div  (** Truncating; division by zero is a simulated crash. *)
  | Rem
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And  (** Logical on 0/1 (operands already evaluated). *)
  | Or

type expr =
  | Int of int
  | Var of string  (** Local variable (or parameter) of the current function. *)
  | Gvar of string  (** Global scalar ("register-allocated": no memory traffic). *)
  | Binop of binop * expr * expr
  | Not of expr
  | Rand of expr
      (** [Rand bound]: uniform draw in \[0, bound) from the program's own
          deterministic stream — models input-dependent control flow. *)

type stmt =
  | Let of string * expr  (** Bind/overwrite a local. *)
  | Gassign of string * expr
  | Malloc of string * expr * site  (** [v = malloc(size)] *)
  | Calloc of string * expr * expr * site  (** [v = calloc(n, size)] *)
  | Realloc of string * expr * expr * site  (** [v = realloc(ptr, size)] *)
  | Free of expr
  | Load of string * expr * expr * int
      (** [Load (v, ptr, off, bytes)]: [v = *(ptr + off)], a [bytes]-wide
          read. *)
  | Store of expr * expr * expr * int
      (** [Store (ptr, off, value, bytes)]: [*(ptr + off) = value]. *)
  | Call of string option * string * expr list * site
      (** [Call (dst, f, args, site)]; [dst] receives the return value. *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Return of expr
  | Compute of int
      (** [Compute n]: [n] pure ALU instructions; models compute-bound
          phases without generating memory traffic. *)

type func = { fname : string; params : string list; body : stmt list }

type program
(** A finalized program: validated, with all sites assigned. *)

val finalize : main:string -> func list -> program
(** Assigns a unique address to every call/allocation site (starting at
    [0x400000], spaced 16 bytes apart, in textual
    order — mimicking code addresses in a linked binary), and validates:
    [main] exists, function names are unique, every called function is
    defined and invoked with the right arity, and any pre-set (non-zero)
    sites are unique. Raises [Invalid_argument] with a diagnostic
    otherwise. *)

val funcs : program -> func list
val main : program -> string
val find_func : program -> string -> func option

val sites : program -> site list
(** All sites, ascending. *)

val site_label : program -> site -> string
(** Human-readable label for a site, e.g. ["parse_scene:3(create_a)"] —
    enclosing function, statement ordinal, and callee — the reproduction's
    analog of symbolised addresses in Figure 9's node labels. *)

val alloc_sites : program -> site list
(** Sites of allocation intrinsics only. *)
