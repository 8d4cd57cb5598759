open Ir

let i n = Int n
let v x = Var x
let g x = Gvar x
let rand b = Rand b
let not_ e = Not e
let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)
let ( /: ) a b = Binop (Div, a, b)
let ( %: ) a b = Binop (Rem, a, b)
let ( <: ) a b = Binop (Lt, a, b)
let ( <=: ) a b = Binop (Le, a, b)
let ( >: ) a b = Binop (Gt, a, b)
let ( >=: ) a b = Binop (Ge, a, b)
let ( =: ) a b = Binop (Eq, a, b)
let ( <>: ) a b = Binop (Ne, a, b)
let ( &&: ) a b = Binop (And, a, b)
let ( ||: ) a b = Binop (Or, a, b)
let let_ x e = Let (x, e)
let gassign x e = Gassign (x, e)
let malloc ?(site = 0) x sz = Malloc (x, sz, site)
let calloc ?(site = 0) x n sz = Calloc (x, n, sz, site)
let realloc_ ?(site = 0) x p sz = Realloc (x, p, sz, site)
let free_ p = Free p
let load ?(bytes = 8) x p off = Load (x, p, off, bytes)
let store ?(bytes = 8) p off value = Store (p, off, value, bytes)
let call ?(site = 0) ?dst f args = Call (dst, f, args, site)
let if_ c a b = If (c, a, b)
let while_ c body = While (c, body)

let for_ x ~from ~below body =
  [
    Let (x, from);
    While (Binop (Lt, Var x, below), body @ [ Let (x, Binop (Add, Var x, Int 1)) ]);
  ]

let return_ e = Return e
let compute n = Compute n
let func fname params body = { fname; params; body }
let program ~main fns = finalize ~main fns
