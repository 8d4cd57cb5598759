type t = { bits : Bytes.t; n : int }

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { bits = Bytes.make ((n + 7) / 8) '\000'; n }

let length t = t.n

let check t i =
  if i < 0 || i >= t.n then
    invalid_arg (Printf.sprintf "Bitset: index %d out of bounds [0,%d)" i t.n)

let set t i =
  check t i;
  let b = Bytes.get_uint8 t.bits (i lsr 3) in
  Bytes.set_uint8 t.bits (i lsr 3) (b lor (1 lsl (i land 7)))

let clear t i =
  check t i;
  let b = Bytes.get_uint8 t.bits (i lsr 3) in
  Bytes.set_uint8 t.bits (i lsr 3) (b land lnot (1 lsl (i land 7)))

let get t i =
  check t i;
  Bytes.get_uint8 t.bits (i lsr 3) land (1 lsl (i land 7)) <> 0

let clear_all t = Bytes.fill t.bits 0 (Bytes.length t.bits) '\000'

let cardinal t =
  let c = ref 0 in
  for i = 0 to t.n - 1 do
    if get t i then incr c
  done;
  !c

let to_list t =
  let acc = ref [] in
  for i = t.n - 1 downto 0 do
    if get t i then acc := i :: !acc
  done;
  !acc
