type id = int

type table = {
  by_sites : (int array, id) Hashtbl.t;
  mutable arr : int array array; (* id -> sites *)
  mutable n : int;
}

let create () = { by_sites = Hashtbl.create 256; arr = Array.make 64 [||]; n = 0 }

let intern t sites =
  match Hashtbl.find_opt t.by_sites sites with
  | Some id -> id
  | None ->
      if Array.length sites = 0 then invalid_arg "Context.intern: empty context";
      let id = t.n in
      let copy = Array.copy sites in
      Hashtbl.replace t.by_sites copy id;
      if id >= Array.length t.arr then begin
        let bigger = Array.make (2 * Array.length t.arr) [||] in
        Array.blit t.arr 0 bigger 0 t.n;
        t.arr <- bigger
      end;
      t.arr.(id) <- copy;
      t.n <- id + 1;
      id

let check t id =
  if id < 0 || id >= t.n then invalid_arg (Printf.sprintf "Context: bad id %d" id)

let sites t id =
  check t id;
  t.arr.(id)

let alloc_site t id =
  let s = sites t id in
  s.(Array.length s - 1)

let count t = t.n
let label t site_label id =
  sites t id |> Array.to_list |> List.map site_label |> String.concat " -> "

let fold t ~init ~f =
  let acc = ref init in
  for id = 0 to t.n - 1 do
    acc := f !acc id t.arr.(id)
  done;
  !acc
