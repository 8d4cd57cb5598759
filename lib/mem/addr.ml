type t = int

let null = 0
let is_power_of_two n = n > 0 && n land (n - 1) = 0

let check_pow2 name n =
  if not (is_power_of_two n) then
    invalid_arg (Printf.sprintf "%s: alignment %d is not a positive power of two" name n)

let log2 n =
  if not (is_power_of_two n) then invalid_arg "Addr.log2: not a positive power of two";
  let rec go acc n = if n = 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let align_up a n =
  check_pow2 "Addr.align_up" n;
  (a + n - 1) land lnot (n - 1)

let align_down a n =
  check_pow2 "Addr.align_down" n;
  a land lnot (n - 1)

let is_aligned a n =
  check_pow2 "Addr.is_aligned" n;
  a land (n - 1) = 0

let to_hex a = Printf.sprintf "0x%x" a
