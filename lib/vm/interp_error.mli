(** Typed runtime errors raised by the interpreter.

    Replaces the interpreter's historical [Failure "Interp: ..."] strings
    with a structured exception carrying the function being executed and,
    where one exists, the IR site — mirroring {!Alloc_iface.Alloc_error}.
    A printer is registered so campaign logs and uncaught-exception
    reports render as [Interp_error(fname at site 0x..: message)]. *)

type cause =
  | Division_by_zero
  | Modulo_by_zero
  | Rand_bound of int
      (** [Rand] evaluated with this non-positive bound. *)
  | Uncompiled_callee of string
      (** Call to a function name absent from the compiled program. *)
  | Arity_mismatch of { callee : string; expected : int; got : int }
  | Calloc_overflow of { count : int; size : int }
      (** [Calloc count size] whose total byte count is negative or
          overflows the native int. *)

exception Error of { fname : string; site : Ir.site option; cause : cause }

val error : fname:string -> ?site:Ir.site -> cause -> 'a
(** Raise {!Error} at the given location. *)
