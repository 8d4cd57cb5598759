let offset = 0xcbf29ce484222325L
let prime = 0x100000001b3L

let feed h s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Fnv.feed";
  let h = ref h in
  for i = pos to pos + len - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        prime
  done;
  !h
