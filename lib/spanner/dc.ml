type paths = Direct | Uniform of Routing.path array | Shortest

type t = {
  name : string;
  graph : Graph.t;
  spanner : Graph.t;
  paths : int -> int -> paths;
  route_matching : Prng.t -> (int * int) array -> Routing.path array;
}

let reverse p = Array.init (Array.length p) (fun i -> p.(Array.length p - 1 - i))

(* The one sampler: a walk in H reads H's snapshot, taken here. *)
let make ~name ~graph ~spanner paths =
  let csr = Graph.snapshot spanner in
  let found = function
    | Some p -> p
    | None -> invalid_arg (name ^ ": spanner disconnects a routed pair")
  in
  let draw rng (u, v) =
    match paths u v with
    | Direct -> [| u; v |]
    | Uniform [||] -> found (Bfs.shortest_path csr u v)
    | Uniform ps ->
        let p = Prng.pick rng ps in
        if p.(0) = u then p else reverse p
    | Shortest -> found (Bfs.random_shortest_path csr rng u v)
  in
  { name; graph; spanner; paths; route_matching = (fun rng pairs -> Array.map (draw rng) pairs) }

let of_sp_router ~name ~graph ~spanner = make ~name ~graph ~spanner (fun _ _ -> Shortest)

let route_general t rng routing =
  Decompose.run ~n:(Graph.n t.graph) ~router:(t.route_matching rng) routing

type matching_report = {
  trials : int;
  mean_congestion : float;
  max_congestion : int;
  max_mean_node_load : float;
  mean_path_len : float;
  max_path_len : int;
}

let measure_matching t rng ~trials =
  if trials < 0 then invalid_arg "Dc.measure_matching: trials must be >= 0";
  let n = Graph.n t.graph in
  let congestions = Array.make trials 0.0 in
  let max_c = ref 0 in
  let load_totals = Array.make n 0 in
  let len_sum = ref 0.0 and len_count = ref 0 and max_len = ref 0 in
  for i = 0 to trials - 1 do
    let matching = Matching.random_maximal rng t.graph in
    let paths = t.route_matching rng matching in
    let loads = Routing.node_loads ~n paths in
    Array.iteri (fun v l -> load_totals.(v) <- load_totals.(v) + l) loads;
    let c = Array.fold_left max 0 loads in
    congestions.(i) <- float_of_int c;
    max_c := max !max_c c;
    Array.iter
      (fun p ->
        let l = Routing.length p in
        len_sum := !len_sum +. float_of_int l;
        incr len_count;
        max_len := max !max_len l)
      paths
  done;
  let max_mean_node_load =
    if trials = 0 then 0.0
    else
      float_of_int (Array.fold_left max 0 load_totals) /. float_of_int trials
  in
  {
    trials;
    mean_congestion = Stats.mean congestions;
    max_congestion = !max_c;
    max_mean_node_load;
    mean_path_len = (if !len_count = 0 then 0.0 else !len_sum /. float_of_int !len_count);
    max_path_len = !max_len;
  }

type general_report = {
  problem_size : int;
  base_congestion : int;
  spanner_congestion : int;
  stretch : float;
  dist_stretch : float;
  decompose : Decompose.stats;
}

let measure_general t rng routing =
  let n = Graph.n t.graph in
  let base = Routing.congestion ~n routing in
  let { Decompose.substitute; stats } = route_general t rng routing in
  let spanner_c = Routing.congestion ~n substitute in
  {
    problem_size = Array.length routing;
    base_congestion = base;
    spanner_congestion = spanner_c;
    stretch = (if base = 0 then 0.0 else float_of_int spanner_c /. float_of_int base);
    dist_stretch = Routing.max_stretch substitute ~against:routing;
    decompose = stats;
  }
