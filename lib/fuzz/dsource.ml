type mode =
  | Record of Rng.t
  | Replay of int array * int ref (* source trace, cursor *)

type t = {
  mode : mode;
  buf : Buffer.t; (* effective decisions, 8 bytes each, little-endian *)
  mutable n : int;
}

let recording rng = { mode = Record rng; buf = Buffer.create 256; n = 0 }
let replaying arr = { mode = Replay (arr, ref 0); buf = Buffer.create 256; n = 0 }

let push t v =
  Buffer.add_int64_le t.buf (Int64.of_int v);
  t.n <- t.n + 1

let draw t bound =
  if bound <= 0 then invalid_arg "Dsource.draw: bound must be positive";
  let v =
    match t.mode with
    | Record rng -> Rng.int rng bound
    | Replay (arr, cur) ->
        if !cur >= Array.length arr then 0
        else begin
          let raw = arr.(!cur) in
          incr cur;
          (* Clamp into range; negative raws fold to non-negative first. *)
          (raw land max_int) mod bound
        end
  in
  push t v;
  v

let draw_in t lo hi =
  if hi < lo then invalid_arg "Dsource.draw_in: empty range";
  lo + draw t (hi - lo + 1)

let weighted t weights =
  let total = Array.fold_left ( + ) 0 weights in
  if Array.length weights = 0 || total <= 0 then
    invalid_arg "Dsource.weighted: weights must have a positive total";
  let u = draw t total in
  let rec pick i acc =
    let acc = acc + weights.(i) in
    if u < acc then i else pick (i + 1) acc
  in
  pick 0 0

let trace t =
  let s = Buffer.contents t.buf in
  Array.init t.n (fun i -> Int64.to_int (String.get_int64_le s (i * 8)))
