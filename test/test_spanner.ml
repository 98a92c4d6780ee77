(* Tests for dcs_spanner: stretch measurement vs brute force, support
   structure, Algorithm 1 (Theorem 3), the Theorem 2 expander construction,
   classic baselines and the sparsifier substitutes. *)

let check = Alcotest.check

let random_graph seed n p =
  let rng = Prng.create seed in
  Generators.erdos_renyi rng n p

(* ---- Stretch ---- *)

let brute_force_stretch g h =
  (* max over all connected pairs of d_H / d_G; must equal max over edges. *)
  let dg = Bfs.all_distances (Graph.snapshot g) in
  let dh = Bfs.all_distances (Graph.snapshot h) in
  let n = Graph.n g in
  let worst = ref 1.0 in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if dg.(u).(v) > 0 then begin
        if dh.(u).(v) < 0 then worst := infinity
        else worst := max !worst (float_of_int dh.(u).(v) /. float_of_int dg.(u).(v))
      end
    done
  done;
  !worst

let test_stretch_exact_equals_pairwise () =
  for seed = 1 to 12 do
    let g = random_graph seed 25 0.25 in
    let rng = Prng.create (seed * 7) in
    (* random spanner: drop ~30% of edges, then reconnect *)
    let h = Graph.empty_like g in
    Graph.iter_edges g (fun u v -> if Prng.bool rng 0.7 then ignore (Graph.add_edge h u v));
    ignore (Connectivity.repair h ~within:g);
    let edge_stretch = Stretch.exact g h in
    let pairwise = brute_force_stretch g h in
    if Connectivity.is_connected g then
      check (Alcotest.float 1e-9)
        (Printf.sprintf "edge stretch = pairwise stretch (seed %d)" seed)
        pairwise
        (if edge_stretch = max_int then infinity else float_of_int edge_stretch)
  done

let test_stretch_identity () =
  let g = Generators.torus 5 5 in
  check Alcotest.int "identity spanner" 1 (Stretch.exact g (Graph.copy g))

let test_stretch_disconnected () =
  let g = Generators.cycle 6 in
  let h = Graph.copy g in
  ignore (Graph.remove_edge h 0 1);
  ignore (Graph.remove_edge h 3 4);
  check Alcotest.int "disconnected" max_int (Stretch.exact g h);
  check Alcotest.bool "not 3-spanner" false (Stretch.is_three_spanner g h);
  check Alcotest.int "two violations" 2 (List.length (Stretch.violations g h ~bound:3))

let test_stretch_cycle () =
  (* Removing one edge of C_n forces a detour of length n-1. *)
  let g = Generators.cycle 8 in
  let h = Graph.copy g in
  ignore (Graph.remove_edge h 0 7);
  check Alcotest.int "cycle detour" 7 (Stretch.exact g h);
  check Alcotest.int "bounded miss" max_int (Stretch.exact_bounded g h ~bound:3)

let test_stretch_sampled_consistent () =
  let g = Generators.two_cliques_matching 20 in
  let h = Graph.copy g in
  for i = 1 to 9 do
    ignore (Graph.remove_edge h i (10 + i))
  done;
  let rng = Prng.create 2 in
  let s = Stretch.sampled_pairs rng g h ~samples:500 in
  check Alcotest.bool "sampled <= exact" true (s <= float_of_int (Stretch.exact g h) +. 1e-9)

(* ---- Support structure ---- *)

let test_base_support_matches_common_neighbors () =
  let g = random_graph 31 40 0.2 in
  let bm = Bitmat.of_graph g in
  for u = 0 to 39 do
    for z = u + 1 to 39 do
      check Alcotest.int "base support" (List.length (Graph.common_neighbors g u z))
        (Support.base_support bm u z)
    done
  done

let test_supported_extensions_definition () =
  (* Figure 3.b style hand-built instance: u-v edge; extensions of (u,v)
     toward v are neighbors z of v (z<>u) with |N(u) ∩ N(z)| >= a+1. *)
  let g =
    Graph.of_edges 7
      [
        (0, 1) (* u=0, v=1 *);
        (1, 2) (* extension toward z=2 *);
        (0, 3);
        (3, 2) (* 2-detour u-3-z *);
        (0, 4);
        (4, 2) (* 2-detour u-4-z *);
        (1, 5) (* extension toward z=5, no 2-detours except via... none *);
      ]
  in
  let bm = Bitmat.of_graph g in
  (* Base {0,2} has routers {1,3,4} (the router v=1 itself counts, per the
     paper's "one of the 2-detours is {(u,v)(v,z)}"): it is 3-supported, so
     the extension (1,2) of (0,1) toward 1 is a-supported iff a <= 2. *)
  let exts2 = Support.supported_extensions g bm ~u:0 ~v:1 ~a:2 in
  check Alcotest.(list int) "a=2 extensions" [ 2 ] (List.sort compare exts2);
  let exts3 = Support.supported_extensions g bm ~u:0 ~v:1 ~a:3 in
  check Alcotest.(list int) "a=3 extensions" [] exts3;
  check Alcotest.bool "(2,1)-supported toward v" true
    (Support.is_ab_supported_toward g bm ~u:0 ~v:1 ~a:2 ~b:1);
  check Alcotest.bool "(2,2)-supported toward v" false
    (Support.is_ab_supported_toward g bm ~u:0 ~v:1 ~a:2 ~b:2)

let test_complete_graph_support () =
  (* In K_n every edge is (n-3, n-2)-supported toward each direction:
     every extension's base has n-2 common neighbors. *)
  let n = 10 in
  let g = Generators.complete n in
  let bm = Bitmat.of_graph g in
  check Alcotest.bool "max support" true
    (Support.is_ab_supported g bm 0 1 ~a:(n - 3) ~b:(n - 2));
  check Alcotest.bool "beyond max" false
    (Support.is_ab_supported g bm 0 1 ~a:(n - 2) ~b:1)

let test_three_detours () =
  let g = Generators.complete 6 in
  (* 3-detours of (0,1): z in N(1)\{0}, x in N(0) ∩ N(z) \ {0,1,z}:
     4 choices of z, 3 of x. *)
  let detours = Support.three_detours g ~u:0 ~v:1 ~cap:1000 in
  check Alcotest.int "count in K6" 12 (List.length detours);
  List.iter
    (fun (x, z) ->
      check Alcotest.bool "path valid" true
        (Graph.mem_edge g 0 x && Graph.mem_edge g x z && Graph.mem_edge g z 1);
      check Alcotest.bool "avoids endpoints" true (x <> 1 && z <> 0))
    detours;
  let capped = Support.three_detours g ~u:0 ~v:1 ~cap:5 in
  check Alcotest.int "cap respected" 5 (List.length capped)

let test_two_detours () =
  let g = Generators.complete 6 in
  check Alcotest.int "common in K6" 4 (List.length (Support.two_detours g ~u:0 ~v:1 ~cap:100));
  let path = Generators.path 5 in
  check Alcotest.int "none on path" 0 (List.length (Support.two_detours path ~u:0 ~v:1 ~cap:10))

let test_census () =
  let rng = Prng.create 5 in
  let g = Generators.random_regular rng 60 20 in
  let c = Support.census rng g ~a:2 ~b:5 in
  check Alcotest.int "edges total" (Graph.m g) c.Support.edges_total;
  check Alcotest.bool "supported fraction sane" true
    (c.Support.edges_supported >= 0 && c.Support.edges_supported <= c.Support.edges_total);
  check Alcotest.bool "samples" true (Array.length c.Support.extension_counts > 0)

(* ---- Algorithm 1 / Theorem 3 ---- *)

let build_alg1 seed n =
  let rng = Prng.create seed in
  let d = int_of_float (float_of_int n ** 0.7) in
  let d = if n * d mod 2 = 1 then d + 1 else d in
  let g = Generators.random_regular rng n d in
  (g, Regular_dc.build rng g)

let test_alg1_subgraph_and_stretch () =
  List.iter
    (fun seed ->
      let g, t = build_alg1 seed 150 in
      check Alcotest.bool "H subgraph of G" true (Graph.is_subgraph t.Regular_dc.spanner ~of_:g);
      check Alcotest.bool "G' subgraph of H" true
        (Graph.is_subgraph t.Regular_dc.sampled ~of_:t.Regular_dc.spanner);
      check Alcotest.bool "3-spanner (repair on)" true
        (Stretch.is_three_spanner g t.Regular_dc.spanner))
    [ 1; 2; 3 ]

let test_alg1_sampling_rate () =
  let g, t = build_alg1 7 200 in
  (* G' should have ~ m * rho = m/sqrt(D) edges; allow 40% slack. *)
  let expected = float_of_int (Graph.m g) /. sqrt (float_of_int t.Regular_dc.delta) in
  let got = float_of_int (Graph.m t.Regular_dc.sampled) in
  check Alcotest.bool
    (Printf.sprintf "sampled size %.0f vs expected %.0f" got expected)
    true
    (got > 0.6 *. expected && got < 1.4 *. expected)

let test_alg1_no_repair_mostly_3 () =
  (* Without repair the stretch certificate can fail, but the spanner is
     still a subgraph and contains all of G'. *)
  let rng = Prng.create 11 in
  let g = Generators.random_regular rng 150 34 in
  let t = Regular_dc.build ~repair:false rng g in
  check Alcotest.int "no repaired edges" 0 t.Regular_dc.repaired;
  check Alcotest.bool "subgraph" true (Graph.is_subgraph t.Regular_dc.spanner ~of_:g)

let test_alg1_explicit_thresholds () =
  let rng = Prng.create 12 in
  let g = Generators.random_regular rng 80 24 in
  let t = Regular_dc.build ~thresholds:(Regular_dc.Explicit (3, 7)) rng g in
  check Alcotest.int "a" 3 t.Regular_dc.support_a;
  check Alcotest.int "b" 7 t.Regular_dc.support_b

let test_alg1_paper_thresholds_degenerate () =
  (* With the paper's constants at laptop n, no edge is supported: everything
     gets reinserted and H = G (the documented degenerate regime). *)
  let rng = Prng.create 13 in
  let g = Generators.random_regular rng 60 20 in
  let t = Regular_dc.build ~thresholds:Regular_dc.Paper rng g in
  check Alcotest.int "H = G" (Graph.m g) (Graph.m t.Regular_dc.spanner)

let test_alg1_router_valid () =
  let g, t = build_alg1 17 120 in
  let dc = Regular_dc.to_dc t g in
  let rng = Prng.create 99 in
  for _ = 1 to 5 do
    let m = Matching.random_maximal rng g in
    let problem = Routing.problem_of_edges m in
    let paths = dc.Dc.route_matching rng m in
    check Alcotest.bool "valid in H" true (Routing.is_valid t.Regular_dc.spanner problem paths);
    Array.iter
      (fun p -> check Alcotest.bool "length <= 3" true (Routing.length p <= 3))
      paths
  done

let test_alg1_matching_congestion_lemma17 () =
  let g, t = build_alg1 23 200 in
  let dc = Regular_dc.to_dc t g in
  let rng = Prng.create 5 in
  let report = Dc.measure_matching dc rng ~trials:5 in
  (* Lemma 17: C <= 1 + 2 sqrt(D) (whp); allow slack for the small-n regime. *)
  let bound = 1.0 +. (3.0 *. sqrt (float_of_int t.Regular_dc.delta)) in
  check Alcotest.bool
    (Printf.sprintf "lemma17: %d <= %.0f" report.Dc.max_congestion bound)
    true
    (float_of_int report.Dc.max_congestion <= bound)

let test_alg1_general_routing () =
  let g, t = build_alg1 29 120 in
  let dc = Regular_dc.to_dc t g in
  let rng = Prng.create 3 in
  let problem = Problems.permutation rng g in
  let base = Sp_routing.route_random (Graph.snapshot g) rng problem in
  let report = Dc.measure_general dc rng base in
  check Alcotest.bool "substitute congestion >= base is allowed but bounded" true
    (report.Dc.spanner_congestion >= 1);
  check Alcotest.bool "distance stretch <= 3" true (report.Dc.dist_stretch <= 3.0 +. 1e-9);
  (* Theorem 1 bound with the measured matching beta': very loose check *)
  check Alcotest.bool "congestion bounded" true
    (report.Dc.spanner_congestion
    <= 12 * (1 + (2 * t.Regular_dc.delta')) * report.Dc.base_congestion
       * int_of_float (ceil (Stats.log2 (float_of_int (Graph.n g)))))

(* ---- Theorem 2 ---- *)

let build_thm2 seed n epsilon =
  let rng = Prng.create seed in
  let d = int_of_float (float_of_int n ** (2.0 /. 3.0 +. epsilon)) in
  let d = if n * d mod 2 = 1 then d + 1 else d in
  let g = Generators.random_regular rng n d in
  (g, Expander_dc.build rng g)

let test_thm2_sampling_probability () =
  let g, t = build_thm2 1 180 0.12 in
  let n = float_of_int (Graph.n g) in
  let expected_p = (n ** (2.0 /. 3.0)) /. float_of_int (Graph.max_degree g) in
  check (Alcotest.float 1e-9) "p = n^{2/3}/Delta" expected_p t.Expander_dc.p;
  let expected_m = expected_p *. float_of_int (Graph.m g) in
  check Alcotest.bool "spanner size concentrates" true
    (float_of_int (Graph.m t.Expander_dc.spanner) > 0.75 *. expected_m
    && float_of_int (Graph.m t.Expander_dc.spanner) < 1.25 *. expected_m)

let test_thm2_stretch_3 () =
  List.iter
    (fun seed ->
      let g, t = build_thm2 seed 180 0.12 in
      check Alcotest.bool "subgraph" true (Graph.is_subgraph t.Expander_dc.spanner ~of_:g);
      check Alcotest.bool "stretch <= 3" true (Stretch.is_three_spanner g t.Expander_dc.spanner))
    [ 2; 3; 4 ]

let test_thm2_router () =
  let g, t = build_thm2 5 150 0.12 in
  let dc = Expander_dc.to_dc t g in
  let rng = Prng.create 5 in
  let m = Matching.random_maximal rng g in
  let problem = Routing.problem_of_edges m in
  let paths = dc.Dc.route_matching rng m in
  check Alcotest.bool "valid in H" true (Routing.is_valid t.Expander_dc.spanner problem paths);
  Array.iter (fun p -> check Alcotest.bool "length <= 3" true (Routing.length p <= 3)) paths;
  let report = Dc.measure_matching dc rng ~trials:3 in
  (* Lemma 7: expected congestion 1 + o(1), whp O(log n); generous cap. *)
  let bound = 4.0 *. log (float_of_int (Graph.n g)) in
  check Alcotest.bool
    (Printf.sprintf "matching congestion %d <= %.1f" report.Dc.max_congestion bound)
    true
    (float_of_int report.Dc.max_congestion <= bound)

let test_thm2_custom_p () =
  let rng = Prng.create 6 in
  let g = Generators.random_regular rng 100 30 in
  let t = Expander_dc.build ~p:1.0 rng g in
  check Alcotest.int "p=1 keeps everything" (Graph.m g) (Graph.m t.Expander_dc.spanner)

(* ---- Classic baselines ---- *)

let test_greedy_spanner_stretch () =
  List.iter
    (fun k ->
      for seed = 1 to 5 do
        let g = random_graph (seed * 13) 40 0.3 in
        let h = Classic.greedy g ~k in
        check Alcotest.bool "subgraph" true (Graph.is_subgraph h ~of_:g);
        let s = Stretch.exact g h in
        check Alcotest.bool
          (Printf.sprintf "stretch %d <= %d (k=%d, seed=%d)" s ((2 * k) - 1) k seed)
          true
          (s <= (2 * k) - 1)
      done)
    [ 1; 2; 3 ]

let test_greedy_k1_identity () =
  let g = random_graph 3 20 0.3 in
  let h = Classic.greedy g ~k:1 in
  check Alcotest.int "k=1 keeps all edges" (Graph.m g) (Graph.m h)

let test_greedy_sparsity_decreases_in_k () =
  let g = random_graph 17 60 0.5 in
  let m2 = Graph.m (Classic.greedy g ~k:2) in
  let m3 = Graph.m (Classic.greedy g ~k:3) in
  check Alcotest.bool "monotone" true (m3 <= m2 && m2 <= Graph.m g)

let test_greedy_girth_property () =
  (* The greedy (2k-1)-spanner has girth > 2k: check no triangles for k=2. *)
  let g = random_graph 19 40 0.4 in
  let h = Classic.greedy g ~k:2 in
  let ok = ref true in
  Graph.iter_edges h (fun u v ->
      List.iter
        (fun w -> if Graph.mem_edge h v w then ok := false)
        (Graph.common_neighbors h u v |> List.filter (fun w -> Graph.mem_edge h u w)));
  check Alcotest.bool "triangle-free" true !ok

let test_baswana_sen () =
  for seed = 1 to 8 do
    let rng = Prng.create seed in
    let g = random_graph (seed * 31) 60 0.3 in
    let h = Baswana_sen_weighted.build ~k:2 rng g in
    check Alcotest.bool "subgraph" true (Graph.is_subgraph h ~of_:g);
    let s = Stretch.exact g h in
    check Alcotest.bool (Printf.sprintf "stretch %d <= 3 (seed=%d)" s seed) true (s <= 3)
  done

let test_baswana_sen_sparsifies_dense () =
  let rng = Prng.create 41 in
  let g = Generators.complete 100 in
  let h = Baswana_sen_weighted.build ~k:2 rng g in
  (* O(n^{3/2}) = 1000; complete graph has 4950 edges. *)
  check Alcotest.bool
    (Printf.sprintf "sparse: %d" (Graph.m h))
    true
    (Graph.m h < 2500)

(* ---- Sparsifiers ---- *)

let test_sparsify_spectral () =
  let rng = Prng.create 51 in
  let g = Generators.random_regular rng 200 50 in
  let t = Sparsify.spectral rng g in
  check Alcotest.bool "subgraph" true (Graph.is_subgraph t.Sparsify.spanner ~of_:g);
  check Alcotest.bool "connected" true (Connectivity.is_connected t.Sparsify.spanner);
  (* ~ c n ln n / 2 edges *)
  let expected = 6.0 *. log 200.0 *. 200.0 /. 2.0 in
  check Alcotest.bool "size about n log n" true
    (float_of_int (Graph.m t.Sparsify.spanner) < 1.6 *. expected);
  (* expansion survives: ratio below 0.8 *)
  check Alcotest.bool "still an expander" true
    (Spectral.expansion_ratio (Graph.snapshot t.Sparsify.spanner) < 0.8)

let test_sparsify_bounded_degree () =
  let rng = Prng.create 52 in
  let g = Generators.random_regular rng 300 74 in
  let t = Sparsify.bounded_degree ~target:12 rng g in
  check Alcotest.bool "connected" true (Connectivity.is_connected t.Sparsify.spanner);
  let avg_deg = 2.0 *. float_of_int (Graph.m t.Sparsify.spanner) /. 300.0 in
  check Alcotest.bool (Printf.sprintf "constant avg degree %.1f" avg_deg) true (avg_deg < 20.0)

let test_dc_of_sp_router () =
  let rng = Prng.create 53 in
  let g = Generators.torus 6 6 in
  let h = Classic.greedy g ~k:2 in
  let dc = Dc.of_sp_router ~name:"test" ~graph:g ~spanner:h in
  let m = Matching.random_maximal rng g in
  let problem = Routing.problem_of_edges m in
  let paths = dc.Dc.route_matching rng m in
  check Alcotest.bool "valid" true (Routing.is_valid h problem paths)

let test_dc_sampler_draws () =
  (* H is the path 0–1–2–3; G adds the edge (0, 3) *)
  let h = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let g = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3); (0, 3) ] in
  let route paths (u, v) =
    let dc = Dc.make ~name:"test" ~graph:g ~spanner:h (fun _ _ -> paths) in
    let rng = Prng.create 1 in
    let p = (dc.Dc.route_matching rng [| (u, v) |]).(0) in
    (p, Prng.int64 rng)
  in
  let after draws =
    let rng = Prng.create 1 in
    for _ = 1 to draws do
      ignore (Prng.int rng 1)
    done;
    Prng.int64 rng
  in
  let expect label (want_path, want_draws) (p, next) =
    check Alcotest.(array int) (label ^ ": path") want_path p;
    check Alcotest.int64 (label ^ ": draws") (after want_draws) next
  in
  expect "direct" ([| 0; 1 |], 0) (route Dc.Direct (0, 1));
  (* a one-element array still draws; a candidate from the far end is reversed *)
  expect "uniform" ([| 0; 1; 2; 3 |], 1) (route (Dc.Uniform [| [| 3; 2; 1; 0 |] |]) (0, 3));
  expect "empty uniform" ([| 0; 1; 2; 3 |], 0) (route (Dc.Uniform [||]) (0, 3));
  expect "shortest" ([| 0; 1; 2; 3 |], 3) (route Dc.Shortest (0, 3))

(* ---- qcheck ---- *)

let prop_alg1_always_subgraph_3spanner =
  QCheck.Test.make ~name:"algorithm1 subgraph + 3-spanner" ~count:15
    QCheck.(pair small_int (int_range 40 120))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let d = max 8 (int_of_float (float_of_int n ** 0.7)) in
      let d = min d (n - 1) in
      let d = if n * d mod 2 = 1 then d - 1 else d in
      let g = Generators.random_regular rng n d in
      let t = Regular_dc.build rng g in
      Graph.is_subgraph t.Regular_dc.spanner ~of_:g
      && Stretch.is_three_spanner g t.Regular_dc.spanner)

(* ---- the construction passes vs per-edge references ---- *)

(* Per-edge references for the passes Algorithm 1, Irregular_dc and Khop_dc
   run after sampling: the unmemoized support test, the 2-/3-detour scan and
   the scalar bounded BFS, each adding edges as a single pass over [g]
   finds them. *)
let ref_reinsert g h ~a ~b =
  let bm = Bitmat.of_graph g in
  let count = ref 0 in
  Graph.iter_edges g (fun u v ->
      if not (Graph.mem_edge h u v) then begin
        let b = b u v in
        if not (Support.is_ab_supported g bm u v ~a ~b) then begin
          ignore (Graph.add_edge h u v);
          incr count
        end
      end);
  !count

let ref_detour_repair g h =
  let missing = ref [] in
  Graph.iter_edges g (fun u v ->
      if
        (not (Graph.mem_edge h u v))
        && Support.two_detours h ~u ~v ~cap:1 = []
        && Support.three_detours h ~u ~v ~cap:1 = []
      then missing := (u, v) :: !missing);
  List.iter (fun (u, v) -> ignore (Graph.add_edge h u v)) !missing;
  List.length !missing

let ref_bfs_repair g ~sampled h ~bound =
  let csr = Graph.snapshot sampled in
  let count = ref 0 in
  Graph.iter_edges g (fun u v ->
      if (not (Graph.mem_edge h u v)) && Bfs.distance_bounded csr u v ~bound < 0 then begin
        ignore (Graph.add_edge h u v);
        incr count
      end);
  !count

let sorted_edges h = List.sort compare (Graph.edges h)

(* same edge set and the same neighbour order at every node *)
let same_layout g h =
  let ok = ref (sorted_edges g = sorted_edges h) in
  for v = 0 to Graph.n g - 1 do
    if Graph.neighbors g v <> Graph.neighbors h v then ok := false
  done;
  !ok

(* the inputs: random regular graphs (committed by a snapshot or straight
   from the generator, whose delta is still pending) and circulants *)
let regular_input seed ~n ~d ~commit =
  let g = Generators.random_regular (Prng.create seed) n d in
  if commit then ignore (Graph.snapshot g);
  g

let circulant_input ~n ~offsets = Generators.circulant n (List.init offsets (fun i -> i + 1))

let prop_alg1_matches_per_edge =
  QCheck.Test.make ~name:"algorithm1 passes = per-edge reference" ~count:24
    QCheck.(triple small_int (int_range 0 2) bool)
    (fun (seed, case, commit) ->
      let g, thresholds =
        match case with
        | 0 -> (regular_input seed ~n:100 ~d:26 ~commit, Regular_dc.Scaled)
        (* Scaled thresholds reinsert nothing at these sizes; these do *)
        | 1 -> (regular_input seed ~n:120 ~d:40 ~commit, Regular_dc.Explicit (12, 22))
        | _ -> (circulant_input ~n:(90 + seed) ~offsets:8, Regular_dc.Explicit (6, 10))
      in
      let t = Regular_dc.build ~thresholds (Prng.create (seed + 1)) g in
      let h = Graph.copy t.Regular_dc.sampled in
      let reinserted =
        ref_reinsert g h ~a:t.Regular_dc.support_a ~b:(fun _ _ -> t.Regular_dc.support_b)
      in
      let repaired = ref_detour_repair g h in
      reinserted = t.Regular_dc.reinserted
      && repaired = t.Regular_dc.repaired
      && same_layout h t.Regular_dc.spanner)

let prop_irregular_matches_per_edge =
  QCheck.Test.make ~name:"irregular passes = per-edge reference" ~count:16
    QCheck.(triple small_int (int_range 0 2) bool)
    (fun (seed, case, commit) ->
      let g =
        match case with
        | 0 ->
            let rng = Prng.create seed in
            Generators.chung_lu rng
              (Generators.power_law_weights rng ~n:120 ~exponent:2.5 ~w_min:8.0)
        | 1 -> regular_input seed ~n:100 ~d:30 ~commit
        | _ -> circulant_input ~n:(90 + seed) ~offsets:8
      in
      let t = Irregular_dc.build (Prng.create (seed + 1)) g in
      let h = Graph.copy t.Irregular_dc.sampled in
      let a = max 2 (int_of_float (ceil (log (float_of_int (max 2 (Graph.n g)))))) in
      let b u v = max 1 (min (Graph.degree g u) (Graph.degree g v) / 4) in
      let reinserted = ref_reinsert g h ~a ~b in
      let repaired = ref_detour_repair g h in
      reinserted = t.Irregular_dc.reinserted
      && repaired = t.Irregular_dc.repaired
      && same_layout h t.Irregular_dc.spanner)

let prop_khop_matches_per_edge =
  QCheck.Test.make ~name:"khop repair = per-edge reference" ~count:16
    QCheck.(triple small_int (int_range 2 4) bool)
    (fun (seed, k, commit) ->
      let g =
        if seed mod 3 = 0 then circulant_input ~n:(90 + seed) ~offsets:6
        else regular_input seed ~n:125 ~d:24 ~commit
      in
      let t = Khop_dc.build ~k (Prng.create (seed + 1)) g in
      let h = Graph.copy t.Khop_dc.sampled in
      let reinserted = ref_bfs_repair g ~sampled:t.Khop_dc.sampled h ~bound:((2 * k) - 1) in
      reinserted = t.Khop_dc.reinserted && sorted_edges h = sorted_edges t.Khop_dc.spanner)

let prop_greedy_stretch_bound =
  QCheck.Test.make ~name:"greedy spanner respects 2k-1" ~count:25
    QCheck.(triple small_int (int_range 5 40) (int_range 1 3))
    (fun (seed, n, k) ->
      let g = random_graph seed n 0.4 in
      let h = Classic.greedy g ~k in
      let s = Stretch.exact g h in
      s = max_int || s <= (2 * k) - 1)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "spanner"
    [
      ( "stretch",
        [
          Alcotest.test_case "edge stretch = pairwise" `Quick test_stretch_exact_equals_pairwise;
          Alcotest.test_case "identity" `Quick test_stretch_identity;
          Alcotest.test_case "disconnected" `Quick test_stretch_disconnected;
          Alcotest.test_case "cycle detour" `Quick test_stretch_cycle;
          Alcotest.test_case "sampled consistency" `Quick test_stretch_sampled_consistent;
        ] );
      ( "support",
        [
          Alcotest.test_case "base support" `Quick test_base_support_matches_common_neighbors;
          Alcotest.test_case "extension definitions" `Quick test_supported_extensions_definition;
          Alcotest.test_case "complete graph" `Quick test_complete_graph_support;
          Alcotest.test_case "3-detours" `Quick test_three_detours;
          Alcotest.test_case "2-detours" `Quick test_two_detours;
          Alcotest.test_case "census" `Quick test_census;
        ] );
      ( "algorithm1",
        [
          Alcotest.test_case "subgraph + stretch" `Quick test_alg1_subgraph_and_stretch;
          Alcotest.test_case "sampling rate" `Quick test_alg1_sampling_rate;
          Alcotest.test_case "no repair mode" `Quick test_alg1_no_repair_mostly_3;
          Alcotest.test_case "explicit thresholds" `Quick test_alg1_explicit_thresholds;
          Alcotest.test_case "paper thresholds degenerate" `Quick test_alg1_paper_thresholds_degenerate;
          Alcotest.test_case "router validity" `Quick test_alg1_router_valid;
          Alcotest.test_case "lemma 17 congestion" `Quick test_alg1_matching_congestion_lemma17;
          Alcotest.test_case "general routing" `Quick test_alg1_general_routing;
        ] );
      ( "theorem2",
        [
          Alcotest.test_case "sampling probability" `Quick test_thm2_sampling_probability;
          Alcotest.test_case "stretch 3" `Quick test_thm2_stretch_3;
          Alcotest.test_case "router + congestion" `Quick test_thm2_router;
          Alcotest.test_case "custom p" `Quick test_thm2_custom_p;
        ] );
      ( "classic",
        [
          Alcotest.test_case "greedy stretch" `Quick test_greedy_spanner_stretch;
          Alcotest.test_case "greedy k=1" `Quick test_greedy_k1_identity;
          Alcotest.test_case "greedy monotone in k" `Quick test_greedy_sparsity_decreases_in_k;
          Alcotest.test_case "greedy triangle-free" `Quick test_greedy_girth_property;
          Alcotest.test_case "baswana-sen stretch" `Quick test_baswana_sen;
          Alcotest.test_case "baswana-sen sparsity" `Quick test_baswana_sen_sparsifies_dense;
        ] );
      ( "sparsify",
        [
          Alcotest.test_case "spectral substitute" `Quick test_sparsify_spectral;
          Alcotest.test_case "bounded degree substitute" `Quick test_sparsify_bounded_degree;
          Alcotest.test_case "sp-router dc" `Quick test_dc_of_sp_router;
        ] );
      ("dc", [ Alcotest.test_case "sampler draws" `Quick test_dc_sampler_draws ]);
      ( "properties",
        q
          [
            prop_alg1_always_subgraph_3spanner;
            prop_greedy_stretch_bound;
            prop_alg1_matches_per_edge;
            prop_irregular_matches_per_edge;
            prop_khop_matches_per_edge;
          ] );
    ]
