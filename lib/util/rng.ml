type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let create ~seed = { state = mix64 (Int64.of_int seed) }

let next t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

(* FNV-1a over the label bytes, 64-bit. Collisions between short ASCII
   labels are practically impossible, and the result feeds [mix64] anyway
   so even a weak hash would only risk stream overlap, not bias. *)
let hash_label label =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    label;
  !h

let split ?label t =
  match label with
  | None ->
      let seed = next t in
      { state = mix64 seed }
  | Some label ->
      (* Read-only derivation: the child depends only on [t]'s current
         state and the label, never on how many other labelled splits
         happened first — so per-tenant streams survive tenant
         reordering. The same label twice yields the same stream. *)
      { state = mix64 (Int64.logxor t.state (hash_label label)) }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^62 so
     bias is negligible for simulation purposes. Mask to 62 bits so the
     value is guaranteed non-negative after Int64.to_int truncation. *)
  let v = Int64.to_int (Int64.logand (next t) 0x3FFF_FFFF_FFFF_FFFFL) in
  v mod bound

let int_in t lo hi =
  if hi < lo then
    invalid_arg (Printf.sprintf "Rng.int_in: empty range [%d, %d]" lo hi);
  let span = hi - lo in
  (* [span] wraps negative when the range is wider than [max_int], and
     [span + 1] wraps when it is exactly [max_int] wide (e.g. [0, max_int]).
     Either way [int] cannot be used; rejection-sample raw 63-bit draws
     instead — the range covers at least half the int domain, so the
     expected number of draws is at most 2. *)
  if span < 0 || span + 1 < 1 then
    let rec draw () =
      let v = Int64.to_int (next t) in
      if lo <= v && v <= hi then v else draw ()
    in
    draw ()
  else lo + int t (span + 1)

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let geometric t ~p =
  if p <= 0.0 || p > 1.0 then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p = 1.0 then 0
  else
    let u = float t 1.0 in
    let u = if u <= 0.0 then epsilon_float else u in
    int_of_float (Float.of_int 0 +. floor (log u /. log (1.0 -. p)))
