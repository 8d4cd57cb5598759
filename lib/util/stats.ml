let check_nonempty name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty input")

(* Quantiles of data containing NaN are garbage whatever the sort does
   with it; reject loudly rather than return a number. *)
let check_no_nan name xs =
  Array.iter (fun x -> if Float.is_nan x then invalid_arg (name ^ ": NaN input")) xs

let mean xs =
  check_nonempty "Stats.mean" xs;
  Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let sorted_copy xs =
  let c = Array.copy xs in
  (* Float.compare, not polymorphic compare: no NaN-ordering surprises,
     and no boxed generic comparison per element. *)
  Array.sort Float.compare c;
  c

let percentile xs p =
  check_nonempty "Stats.percentile" xs;
  check_no_nan "Stats.percentile" xs;
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  let s = sorted_copy xs in
  let n = Array.length s in
  if n = 1 then s.(0)
  else
    let rank = p /. 100.0 *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = int_of_float (ceil rank) in
    if lo = hi then s.(lo)
    else
      let frac = rank -. float_of_int lo in
      (s.(lo) *. (1.0 -. frac)) +. (s.(hi) *. frac)

let median xs = percentile xs 50.0

let stddev xs =
  check_nonempty "Stats.stddev" xs;
  let n = Array.length xs in
  if n < 2 then 0.0
  else
    let m = mean xs in
    let ss = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sqrt (ss /. float_of_int (n - 1))

let geomean xs =
  check_nonempty "Stats.geomean" xs;
  Array.iter (fun x -> if x <= 0.0 then invalid_arg "Stats.geomean: non-positive value") xs;
  let s = Array.fold_left (fun acc x -> acc +. log x) 0.0 xs in
  exp (s /. float_of_int (Array.length xs))

type summary = {
  median : float;
  p25 : float;
  p75 : float;
  mean : float;
  min : float;
  max : float;
}

let summarize xs =
  check_nonempty "Stats.summarize" xs;
  check_no_nan "Stats.summarize" xs;
  {
    median = median xs;
    p25 = percentile xs 25.0;
    p75 = percentile xs 75.0;
    mean = mean xs;
    min = Array.fold_left min xs.(0) xs;
    max = Array.fold_left max xs.(0) xs;
  }
