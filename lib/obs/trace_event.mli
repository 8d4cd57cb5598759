(** File export of a finished {!Obs.t} as a trace (Perfetto /
    [chrome://tracing] loadable; the format is described at
    {!Obs.target}). Kept for halobench, whose traced pass writes through
    it; every [--trace-out] streams through {!Obs.create}'s sink
    instead. *)

val write : ?process_name:string -> path:string -> Obs.t -> unit
(** {!Obs.export} to [path]. Call after {!Obs.finish} (only closed spans
    have durations). *)
