(** Weighted set packing for co-allocation set selection.

    Each hot data stream suggests a {e co-allocation set}: the allocation
    sites of its objects, weighted by the stream's projected benefit. A
    site can belong to at most one runtime pool, so choosing which
    suggestions to enact is weighted set packing — NP-hard, approximated
    (as in Chilimbi & Shaham, following Halldórsson '99) greedily: sets are
    considered in decreasing [weight / sqrt(|set|)] order and accepted when
    disjoint from everything already accepted.

    By default candidate sets are scored {e independently}, as the
    stream-centric original does — which is exactly how context-level
    regularities scattered across many object-level streams end up
    under-weighted (§5.2's roms analysis). Pass [~merge_identical:true] to
    sum the weights of candidates with equal site sets first; the ablation
    bench uses this to quantify how much of the comparator's failure that
    one decision explains. *)

type candidate = { sites : int list; weight : int }
(** [sites] need not be sorted or deduplicated; normalisation happens
    inside. *)

val pack : ?merge_identical:bool -> candidate list -> int list list
(** The selected pairwise-disjoint site sets (each sorted ascending), in
    selection order (best first). Candidates with empty site lists are
    ignored. *)
