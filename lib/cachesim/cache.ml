(** One cache level on its own: {!Hierarchy.Level}, the level code the
    hierarchy walks for L1, L2, L3 and the DTLB. *)
include Hierarchy.Level
