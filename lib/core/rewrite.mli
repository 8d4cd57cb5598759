(** The binary-rewriting pass (§4.3) — the reproduction's BOLT analog.

    Given the selectors chosen by identification, this stage decides the
    concrete instrumentation: it assigns one group-state bit to every
    monitored call site and produces (a) the patch list the interpreter
    applies (the stand-in for BOLT inserting set/unset-bit instructions
    around each point of interest in the binary) and (b) selectors compiled
    down to bit indices, which the specialised allocator evaluates against
    the shared bit vector on every allocation. *)

type t = {
  patches : (Ir.site * int) list;  (** site -> group-state bit index. *)
  selectors : compiled list;  (** Evaluation (popularity) order. *)
  nbits : int;  (** Bits used; the {!Exec_env} must have at least this. *)
}

and compiled = { group : int; conjs : int list list (** bit indices *) }

val plan : Identify.selector list -> t
(** Raises [Invalid_argument] if more sites are monitored than
    {!max_bits}; {!Pipeline.derive} drops groups until they fit. *)

val max_bits : int
(** Capacity of the group-state vector (64, a single machine word in the
    real implementation's spirit). *)

val classify : t -> Bitset.t -> int option
(** Evaluate the compiled selectors against the live group-state vector;
    first (most popular) matching group wins. *)

val site_of_bit : t -> int -> Ir.site
(** Reverse mapping, for diagnostics. *)
