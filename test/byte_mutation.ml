(* Byte-level mutations for the hostile-input properties: a reader given
   a valid artifact with a few of these applied must return [Ok] or a
   typed error and raise nothing else. Shared by the store decoder and
   trace reader properties. *)

type t =
  | Flip of int * int
  | Truncate of int
  | Splice of int * int * int
  | Insert of int * string
  | Inflate of int * int

let show = function
  | Flip (p, x) -> Printf.sprintf "flip(%d,0x%02x)" p x
  | Truncate p -> Printf.sprintf "truncate(%d)" p
  | Splice (a, b, l) -> Printf.sprintf "splice(%d,%d,%d)" a b l
  | Insert (p, s) -> Printf.sprintf "insert(%d,%S)" p s
  | Inflate (p, k) -> Printf.sprintf "inflate(%d,%d)" p k

(* Positions are taken modulo the current length. *)
let mutate s m =
  let n = String.length s in
  match m with
  | _ when n = 0 -> s
  | Flip (p, x) ->
      let b = Bytes.of_string s in
      let i = p mod n in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x));
      Bytes.to_string b
  | Truncate p -> String.sub s 0 (p mod (n + 1))
  | Splice (src, dst, len) ->
      let src = src mod n and dst = dst mod n in
      let len = min len (min (n - src) (n - dst)) in
      let b = Bytes.of_string s in
      Bytes.blit_string s src b dst len;
      Bytes.to_string b
  | Insert (p, ins) ->
      let p = p mod (n + 1) in
      String.sub s 0 p ^ ins ^ String.sub s p (n - p)
  | Inflate (p, k) ->
      (* The byte at [p] becomes an overlong varint: continuation bit
         set, [k] padding bytes, a zero terminator — the same value while
         the shift fits, an overflow once it passes 63 bits. *)
      let p = p mod n in
      let c = Char.code s.[p] land 0x7f in
      String.sub s 0 p
      ^ String.make 1 (Char.chr (c lor 0x80))
      ^ String.make k '\x80' ^ "\x00"
      ^ String.sub s (p + 1) (n - p - 1)

let gen =
  let open QCheck2.Gen in
  let pos = int_bound 1_000_000 in
  oneof
    [
      map2 (fun p x -> Flip (p, x)) pos (int_range 1 255);
      map (fun p -> Truncate p) pos;
      map3 (fun a b l -> Splice (a, b, l)) pos pos (int_range 1 16);
      map2 (fun p s -> Insert (p, s)) pos (string_size ~gen:char (int_range 1 8));
      map2 (fun p k -> Inflate (p, k)) pos (int_range 0 10);
    ]
