(* Classic imperative SEQUITUR (after the reference implementation by
   Nevill-Manning & Witten): doubly-linked symbol lists per rule with a
   circular guard, a digram index enforcing digram uniqueness, and rule
   utility enforced by expanding rules whose use count falls to one.

   The grammar lives in an arena of plain ints, so [push] allocates
   nothing once the arrays have grown to the grammar's size:

   - A symbol is an index into the parallel [value]/[prev]/[next]
     arrays. One int encodes its kind: terminal [t] is [t] itself
     (>= 0), the guard of the rule with id [i] is [-(2i+1)], and a
     nonterminal is [-(2g+2)] where [g] is its rule's guard symbol.
     Digram keys are therefore the two symbols' values, with no tagging.
   - A rule is its guard symbol: [refs] (the use count) is kept per slot
     and read at guards only, and the rule's id lives in the guard's
     value. Ids are handed out in creation order and never reused; the
     start rule has id 0 and guard slot 0. Nothing is indexed by rule
     id, so a grammar that creates and inlines many rules over its life
     needs no more room than its live symbols.
   - Deleted symbols go on a free list, but a slot freed during a push is
     recycled only from the next push on. Within one push a deleted
     symbol keeps its fields, exactly as a discarded record would, so
     the recursion in [check]/[substitute] can never observe a slot that
     was reused under it. Between pushes nothing refers to a deleted
     symbol: the digram index drops an entry whenever its symbol's
     digram changes or the symbol is deleted.
   - The digram index is open-addressed over two int key arrays and a
     symbol array, with linear probing, Fibonacci hashing,
     backward-shift deletion, at most half full. The guard value [-1]
     (rule 0) never occurs in a digram and marks an empty slot.

   The arrays grow by doubling. [check], [process_match], [substitute]
   and [expand_sym] are a line-for-line port of the record-based
   implementation, which the tests keep as a reference model, so the
   grammar (rule ids, right-hand sides, uses and [rules] order) is the
   same rule for rule. *)

type t = {
  mutable value : int array;
  mutable prev : int array;
  mutable next : int array;
  mutable nsyms : int; (* slots ever handed out *)
  mutable free : int array; (* stack of freed slots *)
  mutable nfree : int;
  mutable nready : int; (* free.(0 .. nready-1) were freed by earlier pushes *)
  mutable refs : int array; (* at a guard: its rule's uses *)
  mutable next_rule_id : int;
  mutable input_len : int;
  mutable nrules : int;
  mutable dkey1 : int array; (* digram index: first value, or [no_key] *)
  mutable dkey2 : int array; (* second value *)
  mutable dsym : int array; (* the indexed occurrence *)
  mutable dshift : int; (* 63 - log2 (Array.length dkey1) *)
  mutable dcount : int;
}

let[@inline] guard_v id = -((2 * id) + 1)
let[@inline] nonterm_v g = -((2 * g) + 2)
let[@inline] is_guard_v v = v < 0 && v land 1 = 1
let[@inline] is_nonterm_v v = v < 0 && v land 1 = 0
let[@inline] id_of_guard_v v = (-v - 1) / 2
let[@inline] rule_of_nonterm_v v = (-v - 2) / 2
let no_key = guard_v 0
let start = 0

let[@inline] is_guard t s = is_guard_v t.value.(s)

(* ---------------- Arena ---------------- *)

let init_bits = 12

let grow a fill =
  let b = Array.make (2 * Array.length a) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let[@inline] new_sym t v p n =
  let s =
    if t.nready > 0 then begin
      (* Take the last ready slot; the newest pending one fills its
         place, keeping free.(nready ..) the pending slots. *)
      t.nready <- t.nready - 1;
      t.nfree <- t.nfree - 1;
      let s = t.free.(t.nready) in
      t.free.(t.nready) <- t.free.(t.nfree);
      s
    end
    else begin
      if t.nsyms = Array.length t.value then begin
        t.value <- grow t.value 0;
        t.prev <- grow t.prev 0;
        t.next <- grow t.next 0;
        t.refs <- grow t.refs 0
      end;
      t.nsyms <- t.nsyms + 1;
      t.nsyms - 1
    end
  in
  t.value.(s) <- v;
  t.prev.(s) <- p;
  t.next.(s) <- n;
  s

let[@inline] release t s =
  if t.nfree = Array.length t.free then t.free <- grow t.free 0;
  t.free.(t.nfree) <- s;
  t.nfree <- t.nfree + 1

(* ---------------- Digram index ---------------- *)

let fib = 0x278DDE6E5FD29F05

(* The top bits of the 63-bit product: nearby digrams scatter. *)
let[@inline] digram_home t a b = (((a * fib) lxor b) * fib) lsr t.dshift

(* The slot holding digram (a, b), or the empty slot ending its probe
   run. *)
let[@inline] digram_probe t a b =
  let k1 = t.dkey1 and k2 = t.dkey2 in
  let mask = Array.length k1 - 1 in
  let i = ref (digram_home t a b) in
  while k1.(!i) <> no_key && (k1.(!i) <> a || k2.(!i) <> b) do
    i := (!i + 1) land mask
  done;
  !i

let rec digram_set t a b s =
  let i = digram_probe t a b in
  if t.dkey1.(i) <> no_key then t.dsym.(i) <- s
  else if 2 * (t.dcount + 1) > Array.length t.dkey1 then begin
    digram_grow t;
    digram_set t a b s
  end
  else begin
    t.dkey1.(i) <- a;
    t.dkey2.(i) <- b;
    t.dsym.(i) <- s;
    t.dcount <- t.dcount + 1
  end

and digram_grow t =
  let k1 = t.dkey1 and k2 = t.dkey2 and syms = t.dsym in
  let cap = 2 * Array.length k1 in
  t.dkey1 <- Array.make cap no_key;
  t.dkey2 <- Array.make cap 0;
  t.dsym <- Array.make cap 0;
  t.dshift <- t.dshift - 1;
  t.dcount <- 0;
  Array.iteri (fun i a -> if a <> no_key then digram_set t a k2.(i) syms.(i)) k1

(* Empty slot [hole], then pull back every later entry of its probe run
   that may legally sit there, so probes never stop early on a gap. *)
let digram_remove t hole =
  let k1 = t.dkey1 and k2 = t.dkey2 and syms = t.dsym in
  let mask = Array.length k1 - 1 in
  let hole = ref hole and j = ref ((hole + 1) land mask) in
  while k1.(!j) <> no_key do
    let home = digram_home t k1.(!j) k2.(!j) in
    if (!j - home) land mask >= (!j - !hole) land mask then begin
      k1.(!hole) <- k1.(!j);
      k2.(!hole) <- k2.(!j);
      syms.(!hole) <- syms.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  k1.(!hole) <- no_key;
  t.dcount <- t.dcount - 1

(* Index the digram starting at [s] at [s]. *)
let index_digram t s =
  let a = t.value.(s) and b = t.value.(t.next.(s)) in
  if is_guard_v a || is_guard_v b then invalid_arg "Sequitur: guard in digram";
  digram_set t a b s

(* ---------------- Grammar ---------------- *)

(* A new empty rule, as its guard symbol. *)
let mk_rule t =
  let g = new_sym t (guard_v t.next_rule_id) 0 0 in
  t.prev.(g) <- g;
  t.next.(g) <- g;
  t.refs.(g) <- 0;
  t.next_rule_id <- t.next_rule_id + 1;
  t.nrules <- t.nrules + 1;
  g

let create () =
  let cap = 1 lsl init_bits in
  let t =
    {
      value = Array.make cap 0;
      prev = Array.make cap 0;
      next = Array.make cap 0;
      nsyms = 0;
      free = Array.make cap 0;
      nfree = 0;
      nready = 0;
      refs = Array.make cap 0;
      next_rule_id = 0;
      input_len = 0;
      nrules = 0;
      dkey1 = Array.make cap no_key;
      dkey2 = Array.make cap 0;
      dsym = Array.make cap 0;
      dshift = 63 - init_bits;
      dcount = 0;
    }
  in
  let g = mk_rule t in
  assert (g = start);
  t

(* Remove the index entry for the digram starting at [s], if it is the
   indexed occurrence (the symbol check guards against unrelated pairs
   with equal values). *)
let[@inline] delete_digram t s =
  let n = t.next.(s) in
  if (not (is_guard t s)) && not (is_guard t n) then begin
    let i = digram_probe t t.value.(s) t.value.(n) in
    if t.dkey1.(i) <> no_key && t.dsym.(i) = s then digram_remove t i
  end

(* Link left -> right, un-indexing the digram that used to start at
   [left]. *)
let[@inline] join t left right =
  delete_digram t left;
  t.next.(left) <- right;
  t.prev.(right) <- left

let[@inline] insert_after t s fresh =
  join t fresh t.next.(s);
  join t s fresh

let[@inline] deuse t v =
  if is_nonterm_v v then
    let r = rule_of_nonterm_v v in
    t.refs.(r) <- t.refs.(r) - 1

let[@inline] reuse t v =
  if is_nonterm_v v then
    let r = rule_of_nonterm_v v in
    t.refs.(r) <- t.refs.(r) + 1

(* Unlink and discard a (non-guard) symbol. *)
let delete_sym t s =
  join t t.prev.(s) t.next.(s);
  delete_digram t s;
  deuse t t.value.(s);
  release t s

let[@inline] new_nonterm t r =
  t.refs.(r) <- t.refs.(r) + 1;
  nonterm_v r

let[@inline] first t r = t.next.(r)
let[@inline] last t r = t.prev.(r)

let rec check t s =
  let n = t.next.(s) in
  if is_guard t s || is_guard t n then false
  else begin
    let a = t.value.(s) and b = t.value.(n) in
    let i = digram_probe t a b in
    if t.dkey1.(i) = no_key then begin
      digram_set t a b s;
      false
    end
    else
      let m = t.dsym.(i) in
      if m = s || t.next.(m) = s || n = m then
        (* Already indexed here, or the occurrences overlap (aaa) in either
           direction — the right-overlap case arises only from the extra
           chain probes in [substitute]. *)
        false
      else begin
        process_match t s m;
        true
      end
  end

and process_match t s m =
  let r =
    if is_guard t t.prev.(m) && is_guard t t.next.(t.next.(m)) then begin
      (* The earlier occurrence is a complete rule body: reuse the rule. *)
      let r = t.prev.(m) in
      substitute t s r;
      r
    end
    else begin
      (* Create a new rule for the digram and substitute both
         occurrences. *)
      let r = mk_rule t in
      let c1 = new_sym t t.value.(s) r r in
      reuse t t.value.(c1);
      insert_after t (last t r) c1;
      let c2 = new_sym t t.value.(t.next.(s)) r r in
      reuse t t.value.(c2);
      insert_after t (last t r) c2;
      substitute t m r;
      substitute t s r;
      index_digram t (first t r);
      r
    end
  in
  (* Rule utility: if the rule's first symbol is a nonterminal used only
     once, inline it. *)
  let f = first t r in
  let v = t.value.(f) in
  if is_nonterm_v v && t.refs.(rule_of_nonterm_v v) = 1 then expand_sym t f

and substitute t s r =
  let q = t.prev.(s) in
  delete_sym t t.next.(s);
  delete_sym t s;
  let fresh = new_sym t (new_nonterm t r) q q in
  insert_after t q fresh;
  (* Re-check digrams around the replacement. Beyond the canonical
     (q, fresh) and (fresh, q.next.next) checks, equal-symbol chains
     ("aaa") need two more: deleting the pair can orphan the index slot of
     a chain digram one position to the left of [q] or one position to the
     right of [fresh], because overlapping occurrences share a key and only
     one occurrence is ever indexed. A check () on an indexed digram is a
     no-op, so the extra probes are harmless otherwise. Each check can
     itself substitute (invalidating saved positions), so stop at the
     first that does — its own recursion re-checks the new
     neighbourhood. *)
  if not (check t t.prev.(q)) then
    if not (check t q) then
      if not (check t t.next.(q)) then
        ignore (check t t.next.(t.next.(q)) : bool)

and expand_sym t s =
  (* [s] is a nonterminal whose rule is used exactly once: splice the rule
     body in place of [s] and delete the rule. *)
  let v = t.value.(s) in
  if not (is_nonterm_v v) then invalid_arg "expand_sym";
  let r = rule_of_nonterm_v v in
  let left = t.prev.(s) and right = t.next.(s) in
  let f = first t r and l = last t r in
  delete_digram t s;
  join t left f;
  join t l right;
  index_digram t l;
  t.nrules <- t.nrules - 1;
  release t s;
  release t r

let push t terminal =
  if terminal < 0 then invalid_arg "Sequitur.push: negative terminal";
  t.nready <- t.nfree;
  let fresh = new_sym t terminal start start in
  insert_after t t.prev.(start) fresh;
  t.input_len <- t.input_len + 1;
  if t.input_len > 1 then ignore (check t t.prev.(fresh) : bool)

let input_length t = t.input_len

(* ---------------- Reading the grammar ---------------- *)

let iter_rhs t r f =
  let s = ref (first t r) in
  while not (is_guard t !s) do
    f t.value.(!s);
    s := t.next.(!s)
  done

let all_rules t =
  (* Collect reachable rules from the start rule (all rules are reachable
     by construction). *)
  let seen = Array.make t.nsyms false in
  let order = ref [] in
  let rec visit r =
    if not seen.(r) then begin
      seen.(r) <- true;
      iter_rhs t r (fun v -> if is_nonterm_v v then visit (rule_of_nonterm_v v));
      order := r :: !order
    end
  in
  visit start;
  (* [order] lists parents before children, the start rule first. *)
  !order

type rule_info = {
  rule_id : int;
  expansion : int array;
  uses : int;
  rhs_length : int;
}

let rules t =
  let parents_first = all_rules t in
  (* uses: start = 1; each nonterminal occurrence contributes the
     containing rule's uses. Process parents before children. *)
  let uses = Array.make t.nsyms 0 in
  uses.(start) <- 1;
  List.iter
    (fun r ->
      iter_rhs t r (fun v ->
          if is_nonterm_v v then
            let r2 = rule_of_nonterm_v v in
            uses.(r2) <- uses.(r2) + uses.(r)))
    parents_first;
  (* expansions: children before parents, memoised. *)
  let expansions = Array.make t.nsyms [||] in
  List.iter
    (fun r ->
      let parts = ref [] in
      iter_rhs t r (fun v ->
          let part =
            if is_nonterm_v v then expansions.(rule_of_nonterm_v v) else [| v |]
          in
          parts := part :: !parts);
      expansions.(r) <- Array.concat (List.rev !parts))
    (List.rev parents_first);
  List.map
    (fun r ->
      let rhs_length = ref 0 in
      iter_rhs t r (fun _ -> incr rhs_length);
      {
        rule_id = id_of_guard_v t.value.(r);
        expansion = expansions.(r);
        uses = uses.(r);
        rhs_length = !rhs_length;
      })
    parents_first

let expand t =
  let out = Array.make t.input_len 0 and pos = ref 0 in
  let rec go r =
    iter_rhs t r (fun v ->
        if is_nonterm_v v then go (rule_of_nonterm_v v)
        else begin
          out.(!pos) <- v;
          incr pos
        end)
  in
  go start;
  out

let rule_count t = t.nrules

let check_invariants t =
  let rl = all_rules t in
  let digrams = Hashtbl.create 256 in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  let id r = id_of_guard_v t.value.(r) in
  (* Digram uniqueness across all rule bodies. Overlapping occurrences
     (chains like "aaa") are legal: SEQUITUR only rewrites non-overlapping
     repeats, so a repeat is a violation only when the previous occurrence
     of the same digram is not the immediately preceding symbol. *)
  List.iter
    (fun r ->
      let s = ref (first t r) in
      while not (is_guard t !s) do
        let n = t.next.(!s) in
        if not (is_guard t n) then begin
          let k = (t.value.(!s), t.value.(n)) in
          (match Hashtbl.find_opt digrams k with
          | Some prev when t.next.(prev) <> !s ->
              fail (Printf.sprintf "digram repeated in rule %d" (id r))
          | _ -> ());
          Hashtbl.replace digrams k !s
        end;
        s := n
      done)
    rl;
  (* Rule utility and refcount consistency. *)
  let counted = Array.make t.nsyms 0 in
  List.iter
    (fun r ->
      iter_rhs t r (fun v ->
          if is_nonterm_v v then
            let r2 = rule_of_nonterm_v v in
            counted.(r2) <- counted.(r2) + 1))
    rl;
  List.iter
    (fun r ->
      if r <> start then begin
        let actual = counted.(r) in
        if actual <> t.refs.(r) then
          fail
            (Printf.sprintf "rule %d refcount %d but %d occurrences" (id r)
               t.refs.(r) actual);
        if actual < 2 then
          fail
            (Printf.sprintf "rule %d used %d time(s): utility violated" (id r)
               actual)
      end)
    rl;
  match !err with None -> Ok () | Some m -> Error m
