type candidate = { sites : int list; weight : int }

let normalize sites = List.sort_uniq compare sites

let pack ?(merge_identical = false) candidates =
  let cands =
    List.filter_map
      (fun c ->
        let key = normalize c.sites in
        if key = [] then None else Some (key, c.weight))
      candidates
  in
  let cands =
    if not merge_identical then cands
    else begin
      let merged = Hashtbl.create 64 in
      List.iter
        (fun (sites, w) ->
          let cur = try Hashtbl.find merged sites with Not_found -> 0 in
          Hashtbl.replace merged sites (cur + w))
        cands;
      Hashtbl.fold (fun sites w acc -> (sites, w) :: acc) merged []
    end
  in
  (* Greedy by weight / sqrt(cardinality) (Halldórsson's greedy gives a
     sqrt(m)-approximation for weighted set packing). *)
  let scored =
    List.map
      (fun (sites, w) ->
        (float_of_int w /. sqrt (float_of_int (List.length sites)), sites, w))
      cands
  in
  let sorted =
    List.sort
      (fun (sa, sitesa, _) (sb, sitesb, _) -> compare (sb, sitesa) (sa, sitesb))
      scored
  in
  let used = Hashtbl.create 64 in
  let selected = ref [] in
  List.iter
    (fun (_, sites, _) ->
      if List.for_all (fun s -> not (Hashtbl.mem used s)) sites then begin
        List.iter (fun s -> Hashtbl.replace used s ()) sites;
        selected := sites :: !selected
      end)
    sorted;
  List.rev !selected
