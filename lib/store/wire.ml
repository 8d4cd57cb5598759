(* Little-endian binary primitives for the v2 store codec. Encoders
   append to a caller-owned [Buffer.t]; decoders read from a shared
   backing string through a bounded cursor, so slicing a record out of a
   file image costs one small record object and no byte copies. *)

exception Error of string

let err fmt = Printf.ksprintf (fun m -> raise (Error m)) fmt

(* {1 Encoding} *)

let u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let u32 b v =
  if v < 0 || v > 0xffff_ffff then err "u32 out of range: %d" v;
  Buffer.add_char b (Char.chr (v land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((v lsr 24) land 0xff))

let i64 b v =
  for i = 0 to 7 do
    Buffer.add_char b
      (Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done

(* Zigzag + LEB128: total over every OCaml int, small magnitudes stay
   one byte. *)
let varint b v =
  let z = (v lsl 1) lxor (v asr 62) in
  let z = ref z in
  let continue_ = ref true in
  while !continue_ do
    let byte = !z land 0x7f in
    (* logical shift: the zigzagged value is an unsigned bit pattern *)
    z := !z lsr 7;
    if !z = 0 then begin
      Buffer.add_char b (Char.chr byte);
      continue_ := false
    end
    else Buffer.add_char b (Char.chr (byte lor 0x80))
  done

let bytes b s =
  varint b (String.length s);
  Buffer.add_string b s

(* {1 Decoding} *)

type dec = { data : string; limit : int; mutable pos : int }

let dec ?(pos = 0) ?len data =
  let limit =
    match len with None -> String.length data | Some l -> pos + l
  in
  if pos < 0 || limit > String.length data || pos > limit then
    err "decoder window out of bounds";
  { data; limit; pos }

let remaining d = d.limit - d.pos
let eof d = d.pos >= d.limit

let need d n =
  if d.limit - d.pos < n then
    err "short input: need %d bytes, have %d" n (d.limit - d.pos)

let read_u8 d =
  need d 1;
  let v = Char.code (String.unsafe_get d.data d.pos) in
  d.pos <- d.pos + 1;
  v

let read_i64 d =
  need d 8;
  let v = ref 0L in
  for i = 7 downto 0 do
    v :=
      Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code (String.unsafe_get d.data (d.pos + i))))
  done;
  d.pos <- d.pos + 8;
  !v

let read_varint d =
  let z = ref 0 and shift = ref 0 and fin = ref false in
  while not !fin do
    let byte = read_u8 d in
    if !shift > 62 then err "varint overflows the native int range";
    z := !z lor ((byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    if byte land 0x80 = 0 then fin := true
  done;
  let z = !z in
  (z lsr 1) lxor (- (z land 1))

let read_bytes d =
  let n = read_varint d in
  if n < 0 then err "negative byte-string length %d" n;
  need d n;
  let s = String.sub d.data d.pos n in
  d.pos <- d.pos + n;
  s

let expect_end d =
  if not (eof d) then err "%d trailing bytes after record payload" (remaining d)
