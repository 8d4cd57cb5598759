let quantum = 16
let small_max = 16 * 1024

(* jemalloc's class map: quantum-spaced classes up to 128 bytes, then groups
   of four classes per doubling (160/192/224/256, 320/384/448/512, ...). *)
let classes =
  let tbl = ref [] in
  (* 16, 32, ..., 128 *)
  let s = ref quantum in
  while !s <= 128 do
    tbl := !s :: !tbl;
    s := !s + quantum
  done;
  (* groups of four per doubling: base 128 -> spacing 32, etc. *)
  let base = ref 128 in
  while !base < small_max do
    let spacing = !base / 4 in
    for i = 1 to 4 do
      let c = !base + (i * spacing) in
      if c <= small_max then tbl := c :: !tbl
    done;
    base := !base * 2
  done;
  Array.of_list (List.rev !tbl)

let nclasses = Array.length classes

let size_of_class i =
  if i < 0 || i >= nclasses then invalid_arg "Size_class.size_of_class: out of range";
  classes.(i)

let class_of_size n =
  if n < 0 then invalid_arg "Size_class.class_of_size: negative size";
  let n = Int.max n 1 in
  if n > small_max then None
  else begin
    (* Binary search for the first class >= n. *)
    let lo = ref 0 and hi = ref (nclasses - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if classes.(mid) >= n then hi := mid else lo := mid + 1
    done;
    Some !lo
  end

let round_up n = Option.map size_of_class (class_of_size n)
