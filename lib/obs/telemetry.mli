(** Offline analysis of traces: [halo_cli telemetry report|diff].

    Loads a trace in the layout an {!Obs} sink or {!Trace_event.write}
    writes (see {!Obs.target}): ["ph":"X"] span events and ["halo.metric"]
    summaries. It reconstructs the span set and the final metric
    snapshot, and renders {!Table}s: per-stage
    self-vs-total time, top-k spans, histogram quantile summaries, and a
    thresholded per-metric diff between two runs. *)

type rspan = {
  r_id : int;
  r_parent : int option;
  r_name : string;
  r_depth : int;
  r_track : int;
  r_start_s : float;
  r_dur_s : float;
  r_stage : string option;
      (** The span's ["stage"] attribute when present — pipeline stages
          tag themselves so reports group by stage name. *)
}

type t = { spans : rspan list; metrics : (string * Metrics.value) list }

val of_lines : string list -> (t, string) result
(** Parse a trace's lines: [\[] first, then one event per line with any
    leading [,] stripped, then an optional [\]] (a killed writer leaves
    it off). An [X] event becomes a span ([stage] from [args.stage],
    depth from the parent links); a ["halo.metric"] event becomes a
    metric; other events are skipped. Anything else is an [Error] naming
    the line number. *)

val load : string -> (t, string) result
(** {!of_lines} over a file; an unreadable path (a directory, say) is an
    [Error], never an exception. *)

val stage_table : t -> Table.t
(** Spans grouped by stage attribute (falling back to span name): span
    count, total time, self time (duration minus direct children — sums
    to wall time without double counting), and self-time share. *)

val report_string : ?top:int -> t -> string
(** Three tables: {!stage_table}, the [top] (default 10) longest spans,
    and the metric summaries — counter values, gauge last/max, histogram
    count/mean/p50/p99/p999/max (quantiles re-derived from the decoded
    sketch buckets). *)

type diff_row = {
  d_name : string;
  d_kind : string;
  d_before : float option;
  d_after : float option;
  d_delta : float option;
      (** Fractional change, [(after - before) / |before|]. *)
  d_regressed : bool;  (** [|delta| > threshold]. *)
}

val diff : ?threshold:float -> t -> t -> diff_row list
(** [diff a b] compares one representative statistic per metric name
    (counter value, gauge last, histogram p99 — the north-star latency
    objective is a tail percentile) across both snapshots. [threshold]
    defaults to [0.10]. *)

val diff_table : ?threshold:float -> t -> t -> Table.t * bool
(** Rendered diff plus whether any metric moved beyond the threshold. *)
