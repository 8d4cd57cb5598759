(** Process-wide monotonic(ized) clock.

    Every {!Obs.t} in the process reads the same clock from the same
    epoch, so span timestamps from different contexts — the main context
    and each {!Par} worker's private context — live on one comparable
    timeline, and the Chrome-trace export lines tracks up without
    per-context skew.

    No [CLOCK_MONOTONIC] binding is available in this toolchain, so the
    clock is a monotonicized [Unix.gettimeofday]: readings are clamped to
    a process-wide atomic high-water mark and never decrease, making
    span durations robust to the wall clock being stepped mid-run. *)

val now : unit -> float
(** Seconds since the process-wide epoch; never decreases. *)
