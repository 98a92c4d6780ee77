type t = {
  spanner : Graph.t;
  p : float;
  fallbacks : int ref;
  cache : (int * int, Routing.path array) Hashtbl.t;
}

let norm u v = if u < v then (u, v) else (v, u)

let default_p g =
  let n = float_of_int (Graph.n g) in
  let delta = float_of_int (max 1 (Graph.max_degree g)) in
  min 1.0 ((n ** (2.0 /. 3.0)) /. delta)

let m_fallbacks = Metrics.counter "spanner.router_fallbacks"
let m_cache_miss = Metrics.counter "spanner.candidate_cache_miss"

let build ?p rng g =
  let p = match p with Some p -> min 1.0 (max 1e-9 p) | None -> default_p g in
  let spanner =
    Trace.with_span ~name:"spanner.sampling" (fun () ->
        Graph.filter_edges g (fun _ _ -> Prng.bool rng p))
  in
  { spanner; p; fallbacks = ref 0; cache = Hashtbl.create 256 }

(* Lemma 4 matching between the neighborhoods, then keep the 2/3-hop paths
   whose edges all survived the sampling (Lemma 6). *)
let candidates g ~sampled u v =
  let commons, matched = Bipartite_matching.neighborhood_matching g u v in
  let two_hop =
    List.filter_map
      (fun x -> if sampled u x && sampled x v then Some [| u; x; v |] else None)
      commons
  in
  let three_hop =
    Array.to_list matched
    |> List.filter_map (fun (x, y) ->
           if sampled u x && sampled x y && sampled y v then Some [| u; x; y; v |] else None)
  in
  Array.of_list (two_hop @ three_hop)

(* Cached on the normalized pair, so candidates are oriented from the
   edge's smaller endpoint. *)
let candidates_for t g u v =
  let u, v = norm u v in
  match Hashtbl.find_opt t.cache (u, v) with
  | Some c -> c
  | None ->
      Metrics.incr m_cache_miss;
      let h = t.spanner in
      let c = candidates g ~sampled:(fun x y -> Graph.mem_edge h x y) u v in
      Hashtbl.replace t.cache (u, v) c;
      c

let paths t g u v =
  if Graph.mem_edge t.spanner u v then Dc.Direct
  else
    match candidates_for t g u v with
    | [||] ->
        incr t.fallbacks;
        Metrics.incr m_fallbacks;
        Dc.Uniform [||]
    | candidates -> Dc.Uniform candidates

let to_dc t g = Dc.make ~name:"theorem2" ~graph:g ~spanner:t.spanner (paths t g)
