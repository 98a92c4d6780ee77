let greedy g ~k =
  if k < 1 then invalid_arg "Classic.greedy: k must be >= 1";
  let stretch = (2 * k) - 1 in
  let h = Graph.empty_like g in
  (* Althöfer et al.: scan the edges by nondecreasing (weight, u, v); a
     stable sort by weight keeps iter_edges_w's ascending (u, v) within a
     weight *)
  let order = ref [] in
  Graph.iter_edges_w g (fun u v w -> order := (w, u, v) :: !order);
  let order = Array.of_list (List.rev !order) in
  Array.stable_sort (fun (w, _, _) (w', _, _) -> Int.compare w w') order;
  (* [within u v ~limit]: whether d_H(u, v) <= limit, on the spanner as it
     grows (a CSR snapshot per edge would dominate the cost).  A bucket
     search by distance (Dial's algorithm; one bucket per BFS level on unit
     weights) over one distance array, [max_int] between queries and reset
     through the nodes a query reached. *)
  let dist = Array.make (Graph.n g) max_int and reached = Array.make (Graph.n g) 0 in
  let buckets = ref [||] in
  let within u v ~limit =
    if Array.length !buckets <= limit then buckets := Array.make (limit + 1) [];
    let bucket = !buckets in
    let nreached = ref 1 and top = ref 0 and d = ref 0 in
    reached.(0) <- u;
    dist.(u) <- 0;
    bucket.(0) <- [ u ];
    let found =
      try
        while !d <= !top do
          match bucket.(!d) with
          | [] -> incr d
          | x :: rest ->
              bucket.(!d) <- rest;
              if dist.(x) = !d then
                Graph.iter_neighbors_w h x (fun y w ->
                    let dy = !d + w in
                    if y = v && dy <= limit then raise Exit;
                    (* weights are at least 1, so a node at distance
                       [limit] relaxes nothing: only nearer ones are kept *)
                    if dy < limit && dy < dist.(y) then begin
                      if dist.(y) = max_int then begin
                        reached.(!nreached) <- y;
                        incr nreached
                      end;
                      dist.(y) <- dy;
                      bucket.(dy) <- y :: bucket.(dy);
                      if dy > !top then top := dy
                    end)
        done;
        false
      with Exit -> true
    in
    for i = 0 to !nreached - 1 do
      dist.(reached.(i)) <- max_int
    done;
    for i = 0 to !top do
      bucket.(i) <- []
    done;
    found
  in
  Array.iter
    (fun (w, u, v) ->
      if not (within u v ~limit:(stretch * w)) then ignore (Graph.add_edge ~weight:w h u v))
    order;
  h
