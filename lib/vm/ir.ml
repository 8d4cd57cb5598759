type site = int

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Lt
  | Le
  | Gt
  | Ge
  | Eq
  | Ne
  | And
  | Or

type expr =
  | Int of int
  | Var of string
  | Gvar of string
  | Binop of binop * expr * expr
  | Not of expr
  | Rand of expr

type stmt =
  | Let of string * expr
  | Gassign of string * expr
  | Malloc of string * expr * site
  | Calloc of string * expr * expr * site
  | Realloc of string * expr * expr * site
  | Free of expr
  | Load of string * expr * expr * int
  | Store of expr * expr * expr * int
  | Call of string option * string * expr list * site
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Return of expr
  | Compute of int

type func = { fname : string; params : string list; body : stmt list }

type site_info = {
  in_func : string;
  ordinal : int; (* per-function site counter, for labelling *)
  callee : string option; (* Some f for calls; None for alloc intrinsics *)
  intrinsic : string option; (* "malloc" / "calloc" / "realloc" for allocs *)
}

type program = {
  funcs : func list;
  main : string;
  by_name : (string, func) Hashtbl.t;
  site_infos : (site, site_info) Hashtbl.t;
}

let funcs p = p.funcs
let main p = p.main
let find_func p name = Hashtbl.find_opt p.by_name name

let sites p =
  Hashtbl.fold (fun s _ acc -> s :: acc) p.site_infos [] |> List.sort compare

let alloc_sites p =
  Hashtbl.fold
    (fun s info acc -> if info.intrinsic <> None then s :: acc else acc)
    p.site_infos []
  |> List.sort compare

let site_label p s =
  match Hashtbl.find_opt p.site_infos s with
  | None -> Printf.sprintf "0x%x" s
  | Some info ->
      let target =
        match (info.callee, info.intrinsic) with
        | Some f, _ -> f
        | None, Some i -> i
        | None, None -> "?"
      in
      Printf.sprintf "%s:%d(%s)" info.in_func info.ordinal target

let finalize ~main:main_name fns =
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun f ->
      if Hashtbl.mem by_name f.fname then
        invalid_arg (Printf.sprintf "Ir.finalize: duplicate function %S" f.fname);
      Hashtbl.replace by_name f.fname f)
    fns;
  if not (Hashtbl.mem by_name main_name) then
    invalid_arg (Printf.sprintf "Ir.finalize: main function %S not defined" main_name);
  let site_infos = Hashtbl.create 256 in
  let next = ref 0x400000 in
  let used = Hashtbl.create 256 in
  let claim s =
    if Hashtbl.mem used s then
      invalid_arg (Printf.sprintf "Ir.finalize: duplicate explicit site 0x%x" s);
    Hashtbl.replace used s ()
  in
  (* Pre-claim all explicitly given (non-zero) sites so fresh assignment
     never collides with them. *)
  let rec preclaim_stmt = function
    | Malloc (_, _, s) | Calloc (_, _, _, s) | Realloc (_, _, _, s)
    | Call (_, _, _, s) ->
        if s <> 0 then claim s
    | If (_, a, b) ->
        List.iter preclaim_stmt a;
        List.iter preclaim_stmt b
    | While (_, a) -> List.iter preclaim_stmt a
    | Let _ | Gassign _ | Free _ | Load _ | Store _ | Return _ | Compute _ -> ()
  in
  List.iter (fun f -> List.iter preclaim_stmt f.body) fns;
  let counter = ref 0 in
  let fresh () =
    (* Irregular strides mimic real code addresses (instructions between
       call sites vary in length); a 16-spaced lattice would make XOR-based
       naming schemes collide systematically in a way real binaries do
       not. Deterministic: depends only on how many sites precede. *)
    incr counter;
    let stride = 16 + (8 * ((5 + (13 * !counter)) mod 37)) in
    next := !next + stride;
    while Hashtbl.mem used !next do
      next := !next + 16
    done;
    let s = !next in
    Hashtbl.replace used s ();
    s
  in
  let check_call fname callee args =
    match Hashtbl.find_opt by_name callee with
    | None ->
        invalid_arg
          (Printf.sprintf "Ir.finalize: %S calls undefined function %S" fname callee)
    | Some f ->
        if List.length args <> List.length f.params then
          invalid_arg
            (Printf.sprintf
               "Ir.finalize: %S calls %S with %d argument(s); it takes %d" fname
               callee (List.length args) (List.length f.params))
  in
  let rewrite_func f =
    let ordinal = ref 0 in
    let register s callee intrinsic =
      incr ordinal;
      Hashtbl.replace site_infos s
        { in_func = f.fname; ordinal = !ordinal; callee; intrinsic }
    in
    let rec stmt = function
      | Malloc (v, sz, s) ->
          let s = if s = 0 then fresh () else s in
          register s None (Some "malloc");
          Malloc (v, sz, s)
      | Calloc (v, n, sz, s) ->
          let s = if s = 0 then fresh () else s in
          register s None (Some "calloc");
          Calloc (v, n, sz, s)
      | Realloc (v, p, sz, s) ->
          let s = if s = 0 then fresh () else s in
          register s None (Some "realloc");
          Realloc (v, p, sz, s)
      | Call (dst, callee, args, s) ->
          check_call f.fname callee args;
          let s = if s = 0 then fresh () else s in
          register s (Some callee) None;
          Call (dst, callee, args, s)
      | If (c, a, b) -> If (c, List.map stmt a, List.map stmt b)
      | While (c, a) -> While (c, List.map stmt a)
      | (Let _ | Gassign _ | Free _ | Load _ | Store _ | Return _ | Compute _) as st
        ->
          st
    in
    { f with body = List.map stmt f.body }
  in
  let fns = List.map rewrite_func fns in
  Hashtbl.reset by_name;
  List.iter (fun f -> Hashtbl.replace by_name f.fname f) fns;
  { funcs = fns; main = main_name; by_name; site_infos }
