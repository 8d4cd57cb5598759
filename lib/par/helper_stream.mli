(** A one-way stream of [int] records to a helper domain on a spare core.

    Some layers only consume what the program produces: the cache
    hierarchy reads the access stream, the profiler's affinity queue and
    affinity graph read the accesses resolved to heap objects, and
    nothing either computes flows back into the program. A stream
    lets the calling domain keep interpreting while a helper domain runs
    such a consumer on a spare core.

    Records are written into one [int array] ring of 8 chunks of
    {!chunk_words} words. The producer writes its words
    straight into {!field-buf} at [prod.(pos)] and advances that index,
    so the push stays inline in its own compilation unit; a chunk is
    handed over as a whole by {!publish} and consumed on the helper in
    publish order. The layout of a record is the client's; the stream
    moves words. A record must not straddle a chunk: both clients write
    two-word records, so a chunk fills exactly.

    Whether a stream gets a helper is decided once, when {!run} opens
    it, from {!Par}'s core budget. An idle helper polls for tens of
    microseconds, then sleeps on a condition variable; a producer that
    finds the ring full or drains does the same. *)

val chunk_words : int
(** Words per chunk (8192, a power of two). *)

val pos : int
(** The producer's next write index into [buf] is [prod.(pos)]. It
    always lies inside the current, unpublished chunk. *)

type sync
(** The helper, its counters and its observability. *)

type t = private {
  buf : int array;  (** The ring: [8 * chunk_words] words. *)
  prod : int array;
      (** Padded, producer-private: only [prod.(pos)] is used, alone on
          its cache line, since the producer writes it on every push. *)
  sync : sync;
}

val run :
  ?helper:bool ->
  ?obs:Obs.t ->
  name:string ->
  (Obs.t option -> int array -> int -> int -> unit) ->
  (t option -> 'a) ->
  'a
(** [run ~name consumer f] claims a spare core ({!Par.claim_spare}) and,
    if it gets one, applies [consumer] to the helper's context on the
    calling domain, spawns a helper that calls the result as
    [consume buf off len] on each published chunk in order, and applies
    [f (Some s)]. Without a core it applies [f None], and the client runs
    its consumer inline. [~helper:true] spawns a helper whether or not a
    core is spare (holding one in the budget all the same), and
    [~helper:false] never does; tests use them to hold the two paths to
    each other on any machine.

    With [obs], the helper's context is an {!Obs.child} of it on the
    claim's lane, so the consumer's events land on their own track.

    However [f] returns, the stream is closed: the helper is stopped and
    joined and its core returned to the budget. With [obs], closing
    merges the helper's registry into [obs], adopts its events, and
    observes the seconds the producer spent waiting
    ([<name>.producer_wait_s]) and the helper spent idle
    ([<name>.consumer_idle_s]). Records written since the last {!drain}
    are dropped, and closing never raises for the stream's own sake. A
    closed stream is spent: {!drain} and {!publish} raise
    [Invalid_argument]. *)

val publish : t -> int -> unit
(** [publish s i] hands the current chunk over, its words up to (not
    including) [i], and moves [prod.(pos)] to the start of the next
    chunk once the helper is done with its old contents. The producer
    calls it when a push fills the chunk
    ([i land (chunk_words - 1) = 0]); {!drain} calls it on a partial
    one. *)

val drain : t -> unit
(** Return once every record written so far has been consumed.
    Re-raises, with its backtrace, an exception the consumer raised since
    the last drain (the helper skips the rest of the stream until
    then). *)
