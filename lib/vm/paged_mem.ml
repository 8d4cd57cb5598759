(** The interpreter's heap image on its own: {!Interp.Mem}, the code
    every simulated load and store runs. *)
include Interp.Mem
