(** Hot data stream extraction (Chilimbi, PLDI'01; as used by Chilimbi &
    Shaham, PLDI'06 — the paper's comparison technique, §5.1).

    The profiled data-reference trace (a sequence of object ids) is
    compressed with SEQUITUR; the grammar's rules are the candidate
    {e streams}. A rule's {e heat} is [expansion length x uses] — the
    number of trace positions it accounts for. Following the paper's
    replication settings, minimal hot data streams contain between 2 and
    20 elements, and the stream threshold is set so that hot streams
    account for 90% of all heap accesses: rules are taken hottest-first
    until the target coverage is reached (or candidates run out — the
    situation §5.2 describes for roms, where regularities scatter across
    very many streams). *)

type config = {
  min_elems : int;  (** 2 *)
  max_elems : int;  (** 20 *)
  coverage : float;  (** 0.9 of trace positions *)
}

val default_config : config

type stream = {
  objects : int array;  (** The stream's object ids, in reference order. *)
  heat : int;  (** length x uses. *)
  uses : int;
}

type result = {
  streams : stream list;  (** Selected hot streams, hottest first. *)
  candidate_count : int;
      (** All length-eligible rules — the "over 150,000 streams" count the
          paper reports for roms. *)
  covered : int;  (** Trace positions covered by the selected streams. *)
  trace_length : int;
}

val check_config : config -> unit
(** Raise [Invalid_argument] unless [1 <= min_elems <= max_elems] and
    [coverage] is in (0, 1] (NaN is rejected). *)

val extract : ?config:config -> Sequitur.t -> result
(** Select hot streams from the grammar. Raises [Invalid_argument] on a
    config {!check_config} rejects. *)
