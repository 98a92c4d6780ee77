(* Quickstart: build a DC-spanner, check both stretches, route a workload.

   Run with:  dune exec examples/quickstart.exe *)

let () =
  (* Every randomized step draws from an explicit generator: runs are
     reproducible from the seed. *)
  let rng = Prng.create 42 in

  (* 1. A graph to sparsify: a 60-regular random graph on 343 nodes
        (Delta >= n^{2/3}, the Theorem 3 regime; near-Ramanujan w.h.p.). *)
  let n = 343 in
  let g = Generators.random_regular rng n 60 in
  Printf.printf "G: %d nodes, %d edges, regular=%b, lambda=%.2f\n" (Graph.n g) (Graph.m g)
    (Graph.is_regular g)
    (Spectral.lambda (Graph.snapshot g));

  (* 2. Build the DC-spanner with Algorithm 1 (Theorem 3), picked from the
        construction registry by its CLI name. *)
  let algorithm1 = Construction.find_exn "algorithm1" in
  let dc = Construction.build algorithm1 rng g in
  Printf.printf "H: %d edges (%.0f%% of G) — guarantee: %s\n" (Graph.m dc.Dc.spanner)
    (100.0 *. float_of_int (Graph.m dc.Dc.spanner) /. float_of_int (Graph.m g))
    algorithm1.Construction.guarantee;

  (* 3. Distance stretch: exact, certified on every removed edge. *)
  Printf.printf "distance stretch: %d (paper: 3)\n" (Stretch.exact g dc.Dc.spanner);

  (* 4. Congestion stretch on a matching routing problem.  A matching of
        G-edges routes in G with congestion exactly 1, so the congestion of
        the substitute routing in H *is* the stretch. *)
  let report = Dc.measure_matching dc rng ~trials:5 in
  Printf.printf "matching congestion: mean %.2f, max %d (paper: O(sqrt(Delta)) = %.1f)\n"
    report.Dc.mean_congestion report.Dc.max_congestion (sqrt 60.0);

  (* 5. An arbitrary routing problem, via the Theorem 1 decomposition. *)
  let problem = Problems.permutation rng g in
  let base = Sp_routing.route_random (Graph.snapshot g) rng problem in
  let general = Dc.measure_general dc rng base in
  Printf.printf
    "permutation routing: C_G = %d, C_H = %d (stretch %.2f); every path <= %.0fx longer\n"
    general.Dc.base_congestion general.Dc.spanner_congestion general.Dc.stretch
    general.Dc.dist_stretch;
  Printf.printf "decomposition: %d levels, %d matchings (Lemma 23 cap: O(n^3))\n"
    general.Dc.decompose.Decompose.levels general.Dc.decompose.Decompose.matchings
