let bounded_paths g ~src ~dst ~max_len =
  let out = ref [] in
  let rec dfs v acc len =
    if v = dst then out := Array.of_list (List.rev (v :: acc)) :: !out
    else if len < max_len then
      Graph.iter_neighbors g v (fun u ->
          if not (List.mem u acc) && u <> v then dfs u (v :: acc) (len + 1))
  in
  if src = dst then [ [| src |] ]
  else begin
    dfs src [] 0;
    !out
  end

let add_path loads path delta =
  Array.iter (fun v -> loads.(v) <- loads.(v) + delta) path

let min_congestion g problem ~max_len =
  let n = Graph.n g in
  let k = Array.length problem in
  let choices =
    Array.map
      (fun { Routing.src; dst } -> Array.of_list (bounded_paths g ~src ~dst ~max_len))
      problem
  in
  if Array.exists (fun c -> Array.length c = 0) choices then None
  else begin
    let order = Array.init k (fun i -> i) in
    Array.sort (fun a b -> compare (Array.length choices.(a)) (Array.length choices.(b))) order;
    let loads = Array.make n 0 in
    let chosen = Array.make k [||] in
    let best = ref max_int in
    let best_routing = ref None in
    let rec search idx current_max =
      if current_max < !best then begin
        if idx = k then begin
          best := current_max;
          best_routing := Some (Array.copy chosen)
        end
        else begin
          let req = order.(idx) in
          Array.iter
            (fun p ->
              add_path loads p 1;
              let local = Array.fold_left (fun acc v -> max acc loads.(v)) current_max p in
              chosen.(req) <- p;
              search (idx + 1) local;
              add_path loads p (-1))
            choices.(req)
        end
      end
    in
    search 0 0;
    match !best_routing with None -> None | Some r -> Some (!best, r)
  end

let all_three_spanners g =
  let edges = Graph.edge_array g in
  let m = Array.length edges in
  if m > 20 then invalid_arg "Brute.all_three_spanners: graph too large for enumeration";
  let out = ref [] in
  for mask = 0 to (1 lsl m) - 1 do
    let h = Graph.copy g in
    let removed = ref [] in
    for i = 0 to m - 1 do
      if mask land (1 lsl i) <> 0 then begin
        let u, v = edges.(i) in
        ignore (Graph.remove_edge h u v);
        removed := (u, v) :: !removed
      end
    done;
    if Stretch.is_three_spanner g h then out := (h, Array.of_list (List.rev !removed)) :: !out
  done;
  !out
