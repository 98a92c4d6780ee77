let is_matching pairs =
  let seen = Hashtbl.create (2 * Array.length pairs) in
  let ok = ref true in
  Array.iter
    (fun (u, v) ->
      if u = v || Hashtbl.mem seen u || Hashtbl.mem seen v then ok := false
      else begin
        Hashtbl.add seen u ();
        Hashtbl.add seen v ()
      end)
    pairs;
  !ok

let maximal_over_edges edges n =
  let used = Array.make n false in
  let out = ref [] in
  Array.iter
    (fun (u, v) ->
      if (not used.(u)) && not used.(v) then begin
        used.(u) <- true;
        used.(v) <- true;
        out := (u, v) :: !out
      end)
    edges;
  Array.of_list (List.rev !out)

let greedy_maximal g =
  maximal_over_edges (Graph.edge_array g) (Graph.n g)

let random_maximal rng g =
  let edges = Graph.edge_array g in
  Prng.shuffle rng edges;
  maximal_over_edges edges (Graph.n g)

let random_node_matching rng n ~k =
  if 2 * k > n then invalid_arg "Matching.random_node_matching: 2k > n";
  let nodes = Prng.sample_distinct rng ~n ~k:(2 * k) in
  Array.init k (fun i -> (nodes.(2 * i), nodes.((2 * i) + 1)))
