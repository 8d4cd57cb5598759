(** Pretty-printing ("disassembly") of workload programs.

    Renders a finalized program in a readable C-like syntax with every
    call/allocation site annotated by its address — the reproduction's
    analog of objdump output, used by the CLI's [disasm] command, by tests
    that assert program structure, and when debugging workload authoring. *)

val pp_expr : Format.formatter -> Ir.expr -> unit

val program_to_string : Ir.program -> string
(** The whole program, one function after another. *)
