type t = { spanner : Graph.t; p : float; repair_edges : int }

let sample_with rng g p =
  let spanner = Graph.filter_edges g (fun _ _ -> Prng.bool rng p) in
  let repair_edges = Connectivity.repair spanner ~within:g in
  { spanner; p; repair_edges }

let spectral ?(c = 6.0) rng g =
  let n = float_of_int (max 2 (Graph.n g)) in
  let delta = float_of_int (max 1 (Graph.max_degree g)) in
  let p = min 1.0 (c *. log n /. delta) in
  sample_with rng g p

let bounded_degree ?(target = 16) rng g =
  let delta = float_of_int (max 1 (Graph.max_degree g)) in
  let p = min 1.0 (float_of_int target /. delta) in
  sample_with rng g p
