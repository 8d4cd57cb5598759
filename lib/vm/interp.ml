type hooks = {
  on_access : Addr.t -> int -> bool -> unit;
  on_alloc : Addr.t -> int -> Ir.site -> Ir.site array -> unit;
  on_realloc : Addr.t -> Addr.t -> int -> Ir.site -> Ir.site array -> unit;
  on_free : Addr.t -> unit;
}

let no_hooks =
  {
    on_access = (fun _ _ _ -> ());
    on_alloc = (fun _ _ _ _ -> ());
    on_realloc = (fun _ _ _ _ _ -> ());
    on_free = (fun _ -> ());
  }

(* Instruction surcharges for the timing model: calls into the allocator
   retire far more instructions than a plain statement does. The exact
   values only need to be plausible and identical across configurations. *)
let cost_malloc = 30
let cost_free = 20
let cost_realloc = 40
let cost_call = 2

(* Pre-resolved metric handles; [None] when observability is disabled, in
   which case compilation emits the exact uninstrumented closures. *)
type rt_obs = {
  h_shadow_depth : Metrics.histogram; (* vm.shadow_stack.depth *)
  m_calls : Metrics.counter; (* vm.calls *)
  m_allocs : Metrics.counter; (* vm.allocs *)
}

type rt = {
  alloc : Alloc_iface.t;
  hooks : hooks;
  memcheck : Vmem.t option;
  env : Exec_env.t;
  shadow : Shadow_stack.t;
  mem : Paged_mem.t;
  rng : Rng.t;
  patch_depth : int array;
  globals : int array;
  obs : rt_obs option;
  mutable instructions : int;
  mutable loads : int;
  mutable stores : int;
}

type t = {
  rt : rt;
  main : unit -> int;
  mutable ran : bool;
}

exception Ret of int

(* The BOLT-inserted set/unset-bit instructions are real instructions:
   charge one each so the §5.2 instrumentation-overhead control measures a
   true (tiny) cost instead of exactly zero. *)
let enter_bit rt b =
  rt.instructions <- rt.instructions + 1;
  rt.patch_depth.(b) <- rt.patch_depth.(b) + 1;
  if rt.patch_depth.(b) = 1 then Bitset.set rt.env.Exec_env.group_state b

let exit_bit rt b =
  rt.instructions <- rt.instructions + 1;
  rt.patch_depth.(b) <- rt.patch_depth.(b) - 1;
  if rt.patch_depth.(b) = 0 then Bitset.clear rt.env.Exec_env.group_state b

(* Served from the shadow stack's per-node cache: the same stack and
   site yield the same physically-equal (shared, never-mutated) array,
   which downstream consumers use to memoise context interning. *)
let ctx_of rt site = Shadow_stack.context rt.shadow ~site

(* Calder-style name: XOR of the last four context entries. *)
let name4_of_ctx ctx =
  let n = Array.length ctx in
  let acc = ref 0 in
  for k = max 0 (n - 4) to n - 1 do
    acc := !acc lxor ctx.(k)
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Compilation: names resolved to slots, patch bits resolved per site. *)
(* ------------------------------------------------------------------ *)

type compile_ctx = {
  c_rt : rt;
  locals : (string, int) Hashtbl.t;
  c_globals : (string, int) Hashtbl.t;
  patches : (Ir.site, int) Hashtbl.t;
  cfuncs : (string, int array -> int) Hashtbl.t;
  fname : string;
  nslots : int ref;
}

let local_slot cc name =
  match Hashtbl.find_opt cc.locals name with
  | Some s -> s
  | None ->
      let s = !(cc.nslots) in
      incr cc.nslots;
      Hashtbl.replace cc.locals name s;
      s

let local_slot_read cc name =
  match Hashtbl.find_opt cc.locals name with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Interp: variable %S is never assigned in function %S" name
           cc.fname)

let global_slot cc name =
  match Hashtbl.find_opt cc.c_globals name with
  | Some s -> s
  | None ->
      invalid_arg (Printf.sprintf "Interp: unknown global %S (never assigned)" name)

(* Pre-scan a function body so that reads of locals assigned later in the
   text (loop-carried variables) resolve, and collect global names. *)
let rec prescan_stmt cc st =
  match st with
  | Ir.Let (x, _) | Ir.Malloc (x, _, _) | Ir.Calloc (x, _, _, _)
  | Ir.Realloc (x, _, _, _) | Ir.Load (x, _, _, _) ->
      ignore (local_slot cc x : int)
  | Ir.Call (dst, _, _, _) ->
      Option.iter (fun x -> ignore (local_slot cc x : int)) dst
  | Ir.Gassign (x, _) ->
      if not (Hashtbl.mem cc.c_globals x) then
        Hashtbl.replace cc.c_globals x (Hashtbl.length cc.c_globals)
  | Ir.If (_, a, b) ->
      List.iter (prescan_stmt cc) a;
      List.iter (prescan_stmt cc) b
  | Ir.While (_, a) -> List.iter (prescan_stmt cc) a
  | Ir.Free _ | Ir.Store _ | Ir.Return _ | Ir.Compute _ -> ()

let rec compile_expr cc (e : Ir.expr) : int array -> int =
  let rt = cc.c_rt in
  match e with
  | Int n -> fun _ -> n
  | Var x ->
      let s = local_slot_read cc x in
      fun slots -> slots.(s)
  | Gvar x ->
      let s = global_slot cc x in
      fun _ -> rt.globals.(s)
  | Rand b ->
      let b = compile_expr cc b in
      let fname = cc.fname in
      fun slots ->
        let bound = b slots in
        if bound <= 0 then Interp_error.error ~fname (Rand_bound bound)
        else Rng.int rt.rng bound
  | Not e ->
      let e = compile_expr cc e in
      fun slots -> if e slots = 0 then 1 else 0
  | Binop (op, a, b) -> (
      let a = compile_expr cc a and b = compile_expr cc b in
      let fname = cc.fname in
      match op with
      | Add -> fun s -> a s + b s
      | Sub -> fun s -> a s - b s
      | Mul -> fun s -> a s * b s
      | Div ->
          fun s ->
            let d = b s in
            if d = 0 then Interp_error.error ~fname Division_by_zero
            else a s / d
      | Rem ->
          fun s ->
            let d = b s in
            if d = 0 then Interp_error.error ~fname Modulo_by_zero
            else a s mod d
      | Lt -> fun s -> if a s < b s then 1 else 0
      | Le -> fun s -> if a s <= b s then 1 else 0
      | Gt -> fun s -> if a s > b s then 1 else 0
      | Ge -> fun s -> if a s >= b s then 1 else 0
      | Eq -> fun s -> if a s = b s then 1 else 0
      | Ne -> fun s -> if a s <> b s then 1 else 0
      | And -> fun s -> if a s <> 0 && b s <> 0 then 1 else 0
      | Or -> fun s -> if a s <> 0 || b s <> 0 then 1 else 0)

let bit_of_site cc site = Hashtbl.find_opt cc.patches site

let do_alloc rt ~site ~bit ~size =
  rt.instructions <- rt.instructions + cost_malloc;
  (match rt.obs with None -> () | Some o -> Metrics.incr o.m_allocs);
  (match bit with Some b -> enter_bit rt b | None -> ());
  let ctx = ctx_of rt site in
  rt.env.Exec_env.cur_alloc_site <- site;
  rt.env.Exec_env.cur_name4 <- name4_of_ctx ctx;
  let addr = rt.alloc.Alloc_iface.malloc size in
  rt.env.Exec_env.cur_alloc_site <- 0;
  rt.env.Exec_env.cur_name4 <- 0;
  (match bit with Some b -> exit_bit rt b | None -> ());
  rt.hooks.on_alloc addr size site ctx;
  addr

let rec compile_stmt cc (st : Ir.stmt) : int array -> unit =
  let rt = cc.c_rt in
  match st with
  | Let (x, e) ->
      let s = local_slot cc x and e = compile_expr cc e in
      fun slots ->
        rt.instructions <- rt.instructions + 1;
        slots.(s) <- e slots
  | Gassign (x, e) ->
      let s = global_slot cc x and e = compile_expr cc e in
      fun slots ->
        rt.instructions <- rt.instructions + 1;
        rt.globals.(s) <- e slots
  | Malloc (x, sz, site) ->
      let s = local_slot cc x
      and sz = compile_expr cc sz
      and bit = bit_of_site cc site in
      fun slots -> slots.(s) <- do_alloc rt ~site ~bit ~size:(sz slots)
  | Calloc (x, n, sz, site) ->
      let s = local_slot cc x
      and n = compile_expr cc n
      and sz = compile_expr cc sz
      and bit = bit_of_site cc site in
      let fname = cc.fname in
      fun slots ->
        (* Operands in the historical order of [n slots * sz slots]
           (right-to-left), so Rand draws in the arguments keep their
           stream positions. *)
        let size = sz slots in
        let count = n slots in
        let total = count * size in
        if count < 0 || size < 0 || (size <> 0 && total / size <> count) then
          Interp_error.error ~fname ~site (Calloc_overflow { count; size });
        slots.(s) <- do_alloc rt ~site ~bit ~size:total
  | Realloc (x, p, sz, site) ->
      let s = local_slot cc x
      and p = compile_expr cc p
      and sz = compile_expr cc sz
      and bit = bit_of_site cc site in
      fun slots ->
        let old = p slots and size = sz slots in
        rt.instructions <- rt.instructions + cost_realloc;
        let old_usable =
          if old = Addr.null then 0
          else Option.value (rt.alloc.Alloc_iface.usable_size old) ~default:0
        in
        (match bit with Some b -> enter_bit rt b | None -> ());
        let ctx = ctx_of rt site in
        rt.env.Exec_env.cur_alloc_site <- site;
        rt.env.Exec_env.cur_name4 <- name4_of_ctx ctx;
        let addr = rt.alloc.Alloc_iface.realloc old size in
        rt.env.Exec_env.cur_alloc_site <- 0;
        rt.env.Exec_env.cur_name4 <- 0;
        (match bit with Some b -> exit_bit rt b | None -> ());
        (* memcpy semantics when the block moved. *)
        if addr <> old && old <> Addr.null then
          Paged_mem.copy rt.mem ~src:old ~dst:addr
            ~len:(min old_usable size);
        rt.hooks.on_realloc old addr size site ctx;
        slots.(s) <- addr
  | Free e ->
      let e = compile_expr cc e in
      fun slots ->
        rt.instructions <- rt.instructions + cost_free;
        let addr = e slots in
        if addr <> Addr.null then begin
          rt.hooks.on_free addr;
          rt.alloc.Alloc_iface.free addr
        end
  | Load (x, p, off, bytes) ->
      let s = local_slot cc x
      and p = compile_expr cc p
      and off = compile_expr cc off in
      fun slots ->
        rt.instructions <- rt.instructions + 1;
        rt.loads <- rt.loads + 1;
        let addr = p slots + off slots in
        (match rt.memcheck with Some v -> Vmem.touch v addr bytes | None -> ());
        rt.hooks.on_access addr bytes false;
        slots.(s) <- Paged_mem.load rt.mem addr
  | Store (p, off, value, bytes) ->
      let p = compile_expr cc p
      and off = compile_expr cc off
      and value = compile_expr cc value in
      fun slots ->
        rt.instructions <- rt.instructions + 1;
        rt.stores <- rt.stores + 1;
        let addr = p slots + off slots in
        (match rt.memcheck with Some v -> Vmem.touch v addr bytes | None -> ());
        rt.hooks.on_access addr bytes true;
        Paged_mem.store rt.mem addr (value slots)
  | Call (dst, callee, args, site) ->
      let dst = Option.map (local_slot cc) dst in
      let args = Array.of_list (List.map (compile_expr cc) args) in
      let bit = bit_of_site cc site in
      let fid = Shadow_stack.intern_name rt.shadow callee in
      let callee_fn = ref None in
      let fname = cc.fname in
      let base slots =
        rt.instructions <- rt.instructions + cost_call + Array.length args;
        let f =
          match !callee_fn with
          | Some f -> f
          | None ->
              let f =
                match Hashtbl.find_opt cc.cfuncs callee with
                | Some f -> f
                | None ->
                    Interp_error.error ~fname ~site (Uncompiled_callee callee)
              in
              callee_fn := Some f;
              f
        in
        let argv = Array.map (fun a -> a slots) args in
        Shadow_stack.push_id rt.shadow ~fid ~site;
        (match bit with Some b -> enter_bit rt b | None -> ());
        (* Hand-rolled Fun.protect: the cleanup is two writes, and
           skipping the two closure allocations per call is measurable
           on call-heavy workloads. *)
        match f argv with
        | result ->
            (match bit with Some b -> exit_bit rt b | None -> ());
            Shadow_stack.pop rt.shadow;
            (match dst with Some s -> slots.(s) <- result | None -> ())
        | exception e ->
            (match bit with Some b -> exit_bit rt b | None -> ());
            Shadow_stack.pop rt.shadow;
            raise e
      in
      (* Shadow-stack depth distribution: observed per call, specialised at
         compile time so the disabled path is the bare closure above. *)
      (match rt.obs with
      | None -> base
      | Some o ->
          fun slots ->
            Metrics.incr o.m_calls;
            Metrics.observe o.h_shadow_depth
              (float_of_int (Shadow_stack.depth rt.shadow + 1));
            base slots)
  | If (c, a, b) ->
      let c = compile_expr cc c
      and a = compile_block cc a
      and b = compile_block cc b in
      fun slots ->
        rt.instructions <- rt.instructions + 1;
        if c slots <> 0 then a slots else b slots
  | While (c, body) ->
      let c = compile_expr cc c and body = compile_block cc body in
      fun slots ->
        rt.instructions <- rt.instructions + 1;
        while c slots <> 0 do
          body slots;
          rt.instructions <- rt.instructions + 1
        done
  | Return e ->
      let e = compile_expr cc e in
      fun slots ->
        rt.instructions <- rt.instructions + 1;
        raise (Ret (e slots))
  | Compute n ->
      fun _ -> rt.instructions <- rt.instructions + n

and compile_block cc stmts =
  let compiled = Array.of_list (List.map (compile_stmt cc) stmts) in
  fun slots -> Array.iter (fun f -> f slots) compiled

let compile_func rt c_globals patches cfuncs (f : Ir.func) =
  let cc =
    {
      c_rt = rt;
      locals = Hashtbl.create 16;
      c_globals;
      patches;
      cfuncs;
      fname = f.Ir.fname;
      nslots = ref 0;
    }
  in
  (* Parameters take the first slots, in order. *)
  List.iter (fun p -> ignore (local_slot cc p : int)) f.Ir.params;
  List.iter (prescan_stmt cc) f.Ir.body;
  let body = compile_block cc f.Ir.body in
  let nslots = !(cc.nslots) in
  let nparams = List.length f.Ir.params in
  fun argv ->
    if Array.length argv <> nparams then
      Interp_error.error ~fname:f.Ir.fname
        (Arity_mismatch
           { callee = f.Ir.fname; expected = nparams; got = Array.length argv });
    let slots = Array.make (max nslots 1) 0 in
    Array.blit argv 0 slots 0 nparams;
    try
      body slots;
      0
    with Ret v -> v

let create ?(seed = 1) ?(hooks = no_hooks) ?(patches = []) ?env ?memcheck ?obs
    ~program ~alloc () =
  let env = match env with Some e -> e | None -> Exec_env.create () in
  let patch_tbl = Hashtbl.create 16 in
  let all_sites = Ir.sites program in
  let site_set = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace site_set s ()) all_sites;
  List.iter
    (fun (site, bit) ->
      if not (Hashtbl.mem site_set site) then
        invalid_arg (Printf.sprintf "Interp.create: patch at unknown site 0x%x" site);
      if bit < 0 || bit >= Bitset.length env.Exec_env.group_state then
        invalid_arg (Printf.sprintf "Interp.create: patch bit %d out of range" bit);
      if Hashtbl.mem patch_tbl site then
        invalid_arg (Printf.sprintf "Interp.create: duplicate patch at 0x%x" site);
      Hashtbl.replace patch_tbl site bit)
    patches;
  (* Collect globals across the whole program first so that every function
     sees the same global slot numbering. *)
  let c_globals = Hashtbl.create 16 in
  let rec collect_globals st =
    match st with
    | Ir.Gassign (x, _) ->
        if not (Hashtbl.mem c_globals x) then
          Hashtbl.replace c_globals x (Hashtbl.length c_globals)
    | Ir.If (_, a, b) ->
        List.iter collect_globals a;
        List.iter collect_globals b
    | Ir.While (_, a) -> List.iter collect_globals a
    | _ -> ()
  in
  List.iter (fun f -> List.iter collect_globals f.Ir.body) (Ir.funcs program);
  let rt =
    {
      alloc;
      hooks;
      memcheck;
      env;
      shadow = Shadow_stack.create ();
      mem = Paged_mem.create ();
      rng = Rng.create ~seed;
      patch_depth = Array.make (Bitset.length env.Exec_env.group_state) 0;
      globals = Array.make (max (Hashtbl.length c_globals) 1) 0;
      obs =
        Option.map
          (fun o ->
            let m = Obs.metrics o in
            {
              h_shadow_depth = Metrics.histogram m "vm.shadow_stack.depth";
              m_calls = Metrics.counter m "vm.calls";
              m_allocs = Metrics.counter m "vm.allocs";
            })
          obs;
      instructions = 0;
      loads = 0;
      stores = 0;
    }
  in
  let cfuncs = Hashtbl.create 64 in
  List.iter
    (fun f ->
      Hashtbl.replace cfuncs f.Ir.fname (compile_func rt c_globals patch_tbl cfuncs f))
    (Ir.funcs program);
  let main_name = Ir.main program in
  (match Ir.find_func program main_name with
  | Some f when f.Ir.params <> [] ->
      invalid_arg "Interp.create: main must take no parameters"
  | _ -> ());
  let main () = (Hashtbl.find cfuncs main_name) [||] in
  { rt; main; ran = false }

let run t =
  if t.ran then invalid_arg "Interp.run: already ran";
  t.ran <- true;
  t.main ()

let instructions t = t.rt.instructions
let env t = t.rt.env
let load_store_counts t = (t.rt.loads, t.rt.stores)
