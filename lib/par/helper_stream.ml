let chunk_words = 8192
let ring_chunks = 8
let ring_words = ring_chunks * chunk_words

(* Polls of the other side's counter before a wait blocks on the
   condition; [Domain.cpu_relax] is a pause instruction, so this is tens
   of microseconds, about one chunk's consumption. *)
let spin_polls = 2048

(* The producer's word index into [buf] sits alone in the middle of a
   padded array: it is written on every push, so no line the helper
   reads may hold it (a record field next to the published count made
   the cache-simulator stream slower than the inline walk). OCaml 5.1 has
   no [Atomic.make_contended]; 8 words on each side keep the cell's line
   inside this block. *)
let pos = 8
let pad_words = 17

type sync = {
  name : string;
  consume : int array -> int -> int -> unit;
  lens : int array; (* words in each published chunk *)
  published : int Atomic.t; (* chunks handed over, ever *)
  consumed : int Atomic.t; (* chunks consumed (or skipped after a failure) *)
  stop : bool Atomic.t;
  producer_asleep : bool Atomic.t;
  consumer_asleep : bool Atomic.t;
  lock : Mutex.t;
  wake : Condition.t;
  parent_obs : Obs.t option;
  helper_obs : Obs.t option;
  (* Written by the helper: [failure] when a chunk raises, [idle_s] as it
     exits. *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable idle_s : float;
  (* Written by the producer only, when it has waited. *)
  mutable wait_s : float;
  mutable domain : unit Domain.t option;
}

type t = { buf : int array; prod : int array; sync : sync }

let notify y =
  Mutex.lock y.lock;
  Condition.broadcast y.wake;
  Mutex.unlock y.lock

(* Wait until [ready ()], spinning first, then asleep on [wake] with
   [asleep] set so the other side knows to signal. Returns the seconds
   waited. Each side sets its flag before re-reading the other's counter
   and publishes its counter before reading the other's flag, so with
   sequentially consistent atomics no wake-up is lost. *)
let wait y asleep ready =
  if ready () then 0.0
  else begin
    let t0 = Obs_clock.now () in
    let polls = ref spin_polls in
    while !polls > 0 && not (ready ()) do
      Domain.cpu_relax ();
      decr polls
    done;
    if not (ready ()) then begin
      Mutex.lock y.lock;
      Atomic.set asleep true;
      while not (ready ()) do
        Condition.wait y.wake y.lock
      done;
      Atomic.set asleep false;
      Mutex.unlock y.lock
    end;
    Obs_clock.now () -. t0
  end

(* The helper's loop; its idle time stays in a local until it exits, off
   the record the producer reads. *)
let consume_loop buf y =
  let rec loop n idle =
    let ready () = Atomic.get y.published > n || Atomic.get y.stop in
    let idle = idle +. wait y y.consumer_asleep ready in
    if Atomic.get y.stop then y.idle_s <- idle
    else begin
      let slot = n land (ring_chunks - 1) in
      (if Option.is_none y.failure then
         try y.consume buf (slot * chunk_words) y.lens.(slot)
         with e -> y.failure <- Some (e, Printexc.get_raw_backtrace ()));
      Atomic.set y.consumed (n + 1);
      if Atomic.get y.producer_asleep then notify y;
      loop (n + 1) idle
    end
  in
  loop 0 0.0

let producer_wait y ready =
  let w = wait y y.producer_asleep ready in
  if w > 0.0 then y.wait_s <- y.wait_s +. w

let closed () = invalid_arg "Helper_stream: the stream is closed"

let publish s i =
  let y = s.sync in
  if Atomic.get y.stop then closed ();
  let start = (i - 1) land lnot (chunk_words - 1) in
  let n = Atomic.get y.published in
  y.lens.(n land (ring_chunks - 1)) <- i - start;
  Atomic.set y.published (n + 1);
  if Atomic.get y.consumer_asleep then notify y;
  let next = start + chunk_words in
  Array.unsafe_set s.prod pos (if next = ring_words then 0 else next);
  producer_wait y (fun () -> n + 1 - Atomic.get y.consumed < ring_chunks)

let drain s =
  let y = s.sync in
  if Atomic.get y.stop then closed ();
  let i = Array.unsafe_get s.prod pos in
  if i land (chunk_words - 1) <> 0 then publish s i;
  let n = Atomic.get y.published in
  producer_wait y (fun () -> Atomic.get y.consumed >= n);
  match y.failure with
  | None -> ()
  | Some (e, bt) ->
      y.failure <- None;
      Printexc.raise_with_backtrace e bt

let start ?obs ~name ~lane consumer =
  let helper_obs = Option.map (fun o -> Obs.child o ~track:lane) obs in
  let buf = Array.make ring_words 0 in
  let y =
    {
      name;
      consume = consumer helper_obs;
      lens = Array.make ring_chunks 0;
      published = Atomic.make 0;
      consumed = Atomic.make 0;
      stop = Atomic.make false;
      producer_asleep = Atomic.make false;
      consumer_asleep = Atomic.make false;
      lock = Mutex.create ();
      wake = Condition.create ();
      parent_obs = obs;
      helper_obs;
      failure = None;
      idle_s = 0.0;
      wait_s = 0.0;
      domain = None;
    }
  in
  y.domain <- Some (Domain.spawn (fun () -> consume_loop buf y));
  { buf; prod = Array.make pad_words 0; sync = y }

let close s =
  let y = s.sync in
  match y.domain with
  | None -> ()
  | Some d ->
      y.domain <- None;
      Atomic.set y.stop true;
      notify y;
      Domain.join d;
      Par.release 1;
      Option.iter
        (fun parent ->
          Option.iter
            (fun child ->
              Metrics.merge ~into:(Obs.metrics parent) (Obs.metrics child);
              Obs.adopt parent ~from:child)
            y.helper_obs;
          let po = Some parent in
          Obs.observe po (y.name ^ ".producer_wait_s") y.wait_s;
          Obs.observe po (y.name ^ ".consumer_idle_s") y.idle_s)
        y.parent_obs

let run ?helper ?obs ~name consumer f =
  let lane =
    match helper with
    | Some false -> None
    | Some true -> Some (Par.reserve 1)
    | None -> Par.claim_spare ()
  in
  match lane with
  | None -> f None
  | Some lane ->
      let s =
        try start ?obs ~name ~lane consumer
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          Par.release 1;
          Printexc.raise_with_backtrace e bt
      in
      Fun.protect ~finally:(fun () -> close s) (fun () -> f (Some s))
