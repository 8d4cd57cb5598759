type config = { min_elems : int; max_elems : int; coverage : float }

let default_config = { min_elems = 2; max_elems = 20; coverage = 0.9 }

type stream = { objects : int array; heat : int; uses : int }

type result = {
  streams : stream list;
  candidate_count : int;
  covered : int;
  trace_length : int;
}

(* Cut a hot rule's expansion into consecutive streams of at most
   [max_elems] elements. SEQUITUR's rule-utility property inlines rules
   used only once, so a long repeating pattern surfaces as one long rule;
   the bounded "minimal hot data streams" are its segments. *)
let chunk config (r : Sequitur.rule_info) =
  let exp = r.expansion in
  let n = Array.length exp in
  let rec go start acc =
    if start >= n then List.rev acc
    else begin
      let len = min config.max_elems (n - start) in
      if len < config.min_elems then List.rev acc
      else
        go (start + len)
          ({ objects = Array.sub exp start len; heat = len * r.uses; uses = r.uses }
          :: acc)
    end
  in
  go 0 []

let check_config config =
  if config.min_elems < 1 || config.max_elems < config.min_elems then
    invalid_arg "Hot_streams: bad element bounds";
  if not (config.coverage > 0.0 && config.coverage <= 1.0) then
    invalid_arg "Hot_streams: coverage must be in (0,1]"

let extract ?(config = default_config) grammar =
  check_config config;
  let trace_length = Sequitur.input_length grammar in
  let rules = Sequitur.rules grammar in
  let start_id = match rules with r :: _ -> r.Sequitur.rule_id | [] -> -1 in
  let eligible =
    List.filter
      (fun (r : Sequitur.rule_info) ->
        r.rule_id <> start_id && Array.length r.expansion >= config.min_elems)
      rules
  in
  (* Hottest rules first; among equals prefer the shortest (the "minimal"
     stream for a periodic pattern is the smallest period, and SEQUITUR
     produces the whole doubling hierarchy above it with equal heat). *)
  let sorted =
    List.sort
      (fun (a : Sequitur.rule_info) (b : Sequitur.rule_info) ->
        let heat (r : Sequitur.rule_info) = Array.length r.expansion * r.uses in
        compare
          (heat b, Array.length a.expansion, a.rule_id)
          (heat a, Array.length b.expansion, b.rule_id))
      eligible
  in
  let candidate_count =
    List.fold_left
      (fun acc (r : Sequitur.rule_info) ->
        let n = Array.length r.expansion in
        acc + ((n + config.max_elems - 1) / config.max_elems))
      0 eligible
  in
  let target = config.coverage *. float_of_int trace_length in
  let rec take covered acc = function
    | [] -> (covered, acc)
    | (r : Sequitur.rule_info) :: rest ->
        if float_of_int covered >= target then (covered, acc)
        else
          let heat = Array.length r.expansion * r.uses in
          take (covered + heat) (List.rev_append (chunk config r) acc) rest
  in
  let covered, streams_rev = take 0 [] sorted in
  {
    streams = List.rev streams_rev;
    candidate_count;
    covered = min covered trace_length;
    trace_length;
  }
