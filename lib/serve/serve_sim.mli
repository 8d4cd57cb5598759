(** Fleet simulator: thousands of synthetic clients against one {!Serve}
    engine.

    The fleet's traffic is a {!Schedule.drifting} schedule — the same
    shared traffic model the [lib/traffic] drift study sweeps — with one
    phase per round and [clients] jobs per tick: workload popularity
    follows a quadratically skewed ranking (a cheap Zipf stand-in) that
    rotates [drift] times per round on average (error-diffusion carries,
    so e.g. [drift = 0.25] rotates exactly every fourth round), shifting
    which programs are hot — the staleness policy's natural antagonist.
    Each scheduled job becomes a [profile-record] (with probability
    [record_prob], mixed weights, the schedule's per-job seed) or a
    [plan-request]. The stream is a pure function of the config, so it
    is byte-for-byte reproducible. [halo_cli serve --simulate] replays
    it through {!Serve.handle_batch} one round per batch and prints
    {!Serve.stats_json}; with [--trace-out T], [halo_cli telemetry report
    T] shows the fleet's job latency quantiles
    ([serve.job.latency_s]) and profiler runs ([profile.runs]). *)

type config = {
  clients : int;
  rounds : int;
  record_prob : float;  (** Per-client-per-round profile upload rate. *)
  drift : float;  (** Per-round popularity-rotation probability. *)
  seed : int;
}

val default_config : config
(** 1000 clients, 20 rounds, [record_prob = 0.02], [drift = 0.25],
    [seed = 1]. *)

val job_stream : config -> Serve_proto.job list list
(** The deterministic schedule, one inner list per round. Job ids number
    the flattened stream from 1. *)
