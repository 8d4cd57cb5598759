(* A process-wide monotonicized clock. The toolchain here has no binding
   to CLOCK_MONOTONIC, so we monotonicize Unix.gettimeofday instead: all
   readers share one epoch and one high-water mark, and [now] never goes
   backwards even if the wall clock is stepped mid-run. Atomic CAS keeps
   the high-water mark coherent across domains without a lock. *)

let epoch_wall = Unix.gettimeofday ()
let high_water = Atomic.make 0.0

let rec advance elapsed =
  let seen = Atomic.get high_water in
  if elapsed <= seen then seen
  else if Atomic.compare_and_set high_water seen elapsed then elapsed
  else advance elapsed

let now () = advance (Unix.gettimeofday () -. epoch_wall)
