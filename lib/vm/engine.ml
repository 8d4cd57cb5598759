type kind = Interp
type t = Interp.t

let create ?kind:(_ : kind option) ?seed ?hooks ?patches ?env ?memcheck ?obs
    ~program ~alloc () =
  Interp.create ?seed ?hooks ?patches ?env ?memcheck ?obs ~program ~alloc ()

let run = Interp.run
let instructions = Interp.instructions
