(* Theorem 2 scenario: permutation routing on a sparsified dense expander.

   A data-center-style network is modelled as a dense regular expander.  We
   keep only ~n^{5/3} of its links with the Theorem 2 construction and show
   that an all-to-all permutation workload still routes with essentially the
   same node congestion, and no path more than 3x longer.

   Run with:  dune exec examples/expander_routing.exe *)

let () =
  let rng = Prng.create 7 in
  let n = 512 in
  (* Delta = n^{2/3 + eps}: dense enough that sparsifying pays. *)
  let delta = int_of_float (float_of_int n ** 0.8167) in
  let delta = if n * delta mod 2 = 1 then delta + 1 else delta in
  let g = Generators.random_regular rng n delta in
  let lam = Spectral.lambda (Graph.snapshot g) in
  Printf.printf "network: n=%d, Delta=%d, m=%d, lambda=%.1f (2*sqrt(Delta-1)=%.1f)\n" n delta
    (Graph.m g) lam
    (2.0 *. sqrt (float_of_int (delta - 1)));

  let t = Expander_dc.build rng g in
  let h = t.Expander_dc.spanner in
  Printf.printf "spanner: kept %d/%d edges (p=%.3f); m(H)/n^{5/3} = %.3f\n" (Graph.m h)
    (Graph.m g) t.Expander_dc.p
    (float_of_int (Graph.m h) /. (float_of_int n ** (5.0 /. 3.0)));
  Printf.printf "distance stretch: %d\n" (Stretch.exact g h);

  (* Permutation workload: every node talks to a random partner. *)
  let dc = Expander_dc.to_dc t g in
  let problem = Problems.permutation rng g in
  let base = Sp_routing.route_random (Graph.snapshot g) rng problem in
  let report = Dc.measure_general dc rng base in
  Printf.printf "\npermutation routing (%d requests):\n" (Array.length problem);
  Printf.printf "  congestion in G:           %d\n" report.Dc.base_congestion;
  Printf.printf "  congestion in H:           %d  (stretch %.2f, paper: O(log^2 n) = %.0f)\n"
    report.Dc.spanner_congestion report.Dc.stretch
    (let l = log (float_of_int n) /. log 2.0 in
     l *. l);
  Printf.printf "  worst per-path stretch:    %.1fx\n" report.Dc.dist_stretch;
  Printf.printf "  matchings routed:          %d (levels %d)\n"
    report.Dc.decompose.Decompose.matchings report.Dc.decompose.Decompose.levels;
  Printf.printf "  router BFS fallbacks:      %d (Lemma 6 failures; 0 expected)\n"
    !(t.Expander_dc.fallbacks);

  (* The matching special case of Theorem 2: expected congestion 1 + o(1). *)
  let m_report = Dc.measure_matching dc rng ~trials:5 in
  Printf.printf "\nmatching workloads: mean congestion %.2f, max %d (paper: 1+o(1) mean, O(log n) whp)\n"
    m_report.Dc.mean_congestion m_report.Dc.max_congestion
