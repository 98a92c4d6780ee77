(* Focused edge-case tests across the substrate: boundary inputs, degenerate
   graphs, formatting branches, and structural properties not covered by the
   per-module suites. *)

let check = Alcotest.check

(* ---- Graph boundaries ---- *)

let test_empty_graph () =
  let g = Graph.create 0 in
  check Alcotest.int "n" 0 (Graph.n g);
  check Alcotest.int "m" 0 (Graph.m g);
  check Alcotest.int "max degree" 0 (Graph.max_degree g);
  check Alcotest.int "min degree" 0 (Graph.min_degree g);
  check Alcotest.bool "regular" true (Graph.is_regular g);
  check Alcotest.int "components" 0 (Connectivity.count g);
  check Alcotest.bool "connected (vacuous)" true (Connectivity.is_connected g)

let test_single_node () =
  let g = Graph.create 1 in
  check Alcotest.bool "connected" true (Connectivity.is_connected g);
  check Alcotest.int "stretch of itself" 1 (Stretch.exact g (Graph.copy g));
  let c = Graph.snapshot g in
  check Alcotest.int "self distance" 0 (Bfs.distance c 0 0)

let test_of_edges_dedup () =
  let g = Graph.of_edges 3 [ (0, 1); (1, 0); (0, 1); (2, 2) ] in
  check Alcotest.int "dedup + no self-loops" 1 (Graph.m g)

let test_common_neighbors_adjacent_nodes () =
  (* common neighbors of adjacent nodes in a triangle *)
  let g = Graph.of_edges 3 [ (0, 1); (1, 2); (0, 2) ] in
  check Alcotest.(list int) "triangle commons" [ 2 ] (Graph.common_neighbors g 0 1)

let test_fold_neighbors () =
  let g = Generators.star 5 in
  let sum = Graph.fold_neighbors g 0 (fun acc v -> acc + v) 0 in
  check Alcotest.int "fold over leaves" (1 + 2 + 3 + 4) sum

let test_edge_array_matches_edges () =
  let g = Generators.torus 4 4 in
  let from_list = List.sort compare (Graph.edges g) in
  let from_array = List.sort compare (Array.to_list (Graph.edge_array g)) in
  check Alcotest.(list (pair int int)) "consistent" from_list from_array

(* ---- CSR binary search boundaries ---- *)

let test_csr_mem_edge_extremes () =
  let g = Graph.of_edges 10 [ (5, 0); (5, 9); (5, 4) ] in
  let c = Graph.snapshot g in
  check Alcotest.bool "first neighbor" true (Csr.mem_edge c 5 0);
  check Alcotest.bool "last neighbor" true (Csr.mem_edge c 5 9);
  check Alcotest.bool "middle neighbor" true (Csr.mem_edge c 5 4);
  check Alcotest.bool "absent below" false (Csr.mem_edge c 5 1);
  check Alcotest.bool "absent above" false (Csr.mem_edge c 5 8);
  check Alcotest.bool "empty adjacency" false (Csr.mem_edge c 1 2)

(* ---- Generators boundaries ---- *)

let test_generators_tiny () =
  check Alcotest.int "path 1" 0 (Graph.m (Generators.path 1));
  check Alcotest.int "star 1" 0 (Graph.m (Generators.star 1));
  check Alcotest.int "complete 1" 0 (Graph.m (Generators.complete 1));
  check Alcotest.int "hypercube 0" 1 (Graph.n (Generators.hypercube 0));
  check Alcotest.int "grid 1x1" 0 (Graph.m (Generators.grid 1 1));
  check Alcotest.int "circulant no offsets" 0 (Graph.m (Generators.circulant 5 []));
  check Alcotest.int "circulant offset 0 ignored" 0 (Graph.m (Generators.circulant 5 [ 0 ]))

let test_random_regular_d0_d1 () =
  let rng = Prng.create 1 in
  let g0 = Generators.random_regular rng 6 0 in
  check Alcotest.int "0-regular" 0 (Graph.m g0);
  let g1 = Generators.random_regular rng 6 1 in
  check Alcotest.bool "1-regular = perfect matching" true
    (Graph.is_regular g1 && Graph.max_degree g1 = 1 && Graph.m g1 = 3)

let test_torus_small_dims () =
  (* 2xk torus has doubled wrap edges collapsing; stays simple *)
  let g = Generators.torus 2 4 in
  check Alcotest.bool "simple graph" true (Graph.m g <= 2 * 8)

(* ---- Theorem 4 degree structure ---- *)

let test_theorem4_degrees_balanced () =
  (* the paper notes the composed graph has degrees within constant factors:
     pool-node degree ~ 2-3 per owning instance, special degree = k+1 *)
  let rng = Prng.create 5 in
  let t = Theorem4.make rng ~pool:400 ~instances:60 ~k:3 in
  let g = t.Theorem4.graph in
  Array.iter
    (fun inst ->
      check Alcotest.int "special degree k+1" (t.Theorem4.k + 1)
        (Graph.degree g inst.Theorem4.special))
    t.Theorem4.instances;
  (* pool nodes: degree <= 3 * (#owning instances); bounded by design load *)
  let max_pool_degree = ref 0 in
  for v = 0 to t.Theorem4.pool - 1 do
    max_pool_degree := max !max_pool_degree (Graph.degree g v)
  done;
  check Alcotest.bool
    (Printf.sprintf "pool degrees bounded (%d)" !max_pool_degree)
    true (!max_pool_degree <= 30)

(* ---- Stats formatting branches ---- *)

let test_fmt_float_branches () =
  check Alcotest.string "integer" "42" (Stats.fmt_float 42.0);
  check Alcotest.string "large" "123.5" (Stats.fmt_float 123.456);
  check Alcotest.string "small" "0.123" (Stats.fmt_float 0.1234)

(* ---- Prng int64 split determinism ---- *)

let test_split_deterministic () =
  let mk () =
    let a = Prng.create 9 in
    let child = Prng.split a in
    (Prng.int64 a, Prng.int64 child)
  in
  let x1, y1 = mk () in
  let x2, y2 = mk () in
  check Alcotest.int64 "parent deterministic" x1 x2;
  check Alcotest.int64 "child deterministic" y1 y2

(* ---- Routing degenerate cases ---- *)

let test_routing_self_request_path () =
  let g = Generators.cycle 4 in
  let problem = [| { Routing.src = 2; dst = 2 } |] in
  check Alcotest.bool "single-node path valid" true (Routing.is_valid g problem [| [| 2 |] |])

let test_decompose_duplicate_requests () =
  (* two identical paths share every edge: two levels, each a matching *)
  let routing = [| [| 0; 1; 2 |]; [| 0; 1; 2 |] |] in
  let matchings = Decompose.level_matchings ~n:3 routing in
  Array.iter
    (fun m -> check Alcotest.bool "matching" true (Matching.is_matching m))
    matchings;
  let total = Array.fold_left (fun acc m -> acc + Array.length m) 0 matchings in
  check Alcotest.int "4 edge slots" 4 total;
  let { Decompose.substitute; stats } =
    Decompose.run ~n:3 ~router:(fun pairs -> Array.map (fun (u, v) -> [| u; v |]) pairs) routing
  in
  check Alcotest.int "2 levels" 2 stats.Decompose.levels;
  Array.iteri (fun i p -> check Alcotest.(array int) "unchanged" routing.(i) p) substitute

let test_edge_coloring_empty_and_single () =
  let empty = Graph.create 4 in
  let c = Edge_coloring.misra_gries empty in
  check Alcotest.int "no colors" 0 c.Edge_coloring.num;
  check Alcotest.bool "vacuously proper" true (Edge_coloring.is_proper empty c);
  let single = Graph.of_edges 2 [ (0, 1) ] in
  let c1 = Edge_coloring.misra_gries single in
  check Alcotest.int "one color" 1 c1.Edge_coloring.num

(* ---- spanner edge cases ---- *)

let test_algorithm1_on_tiny_graphs () =
  (* must not crash on degenerate inputs *)
  List.iter
    (fun g ->
      let rng = Prng.create 3 in
      let t = Regular_dc.build rng g in
      check Alcotest.bool "subgraph" true (Graph.is_subgraph t.Regular_dc.spanner ~of_:g))
    [ Graph.create 0; Graph.create 1; Generators.cycle 3; Generators.complete 4 ]

let test_expander_dc_on_clique () =
  let g = Generators.complete 30 in
  let rng = Prng.create 4 in
  let t = Expander_dc.build rng g in
  check Alcotest.bool "3-spanner of clique" true (Stretch.is_three_spanner g t.Expander_dc.spanner)

let test_greedy_empty () =
  let g = Graph.create 5 in
  check Alcotest.int "empty stays empty" 0 (Graph.m (Classic.greedy g ~k:2))

let test_baswana_sen_tiny () =
  let rng = Prng.create 5 in
  let g = Generators.cycle 3 in
  let h = Baswana_sen_weighted.build ~k:2 rng g in
  check Alcotest.bool "valid spanner" true
    (Graph.is_subgraph h ~of_:g && Stretch.exact g h <= 3)

(* ---- lowerbound edge cases ---- *)

let test_ray_line_k1 () =
  let t = Ray_line.make 1 in
  check Alcotest.int "4 nodes" 4 (Graph.n t.Ray_line.graph);
  check Alcotest.int "4 edges" 4 (Graph.m t.Ray_line.graph);
  let h, removed = Ray_line.extremal_spanner t in
  check Alcotest.int "1 removed" 1 (Array.length removed);
  check Alcotest.bool "3-spanner" true (Stretch.is_three_spanner t.Ray_line.graph h)

let test_lemma2_size_1 () =
  let t = Lemma2.make ~alpha:3 ~size:1 in
  (* only the kept matching edge: trivially fine *)
  check Alcotest.int "stretch 1" 1 (Stretch.exact t.Lemma2.graph t.Lemma2.spanner);
  check Alcotest.int "congestion" 1
    (Routing.congestion ~n:(Graph.n t.Lemma2.graph) (Lemma2.short_routing t))

(* ---- distributed edge cases ---- *)

let test_dist_spanner_on_clique () =
  let g = Generators.complete 20 in
  let r = Dist_spanner.run ~seed:3 g in
  let a, b = Regular_dc.support_thresholds Regular_dc.Scaled g in
  let h, _, _ = Regular_dc.of_sample g ~sampled:r.Dist_spanner.sampled ~a ~b in
  check Alcotest.bool "clique agrees" true
    (Graph.m r.Dist_spanner.spanner = Graph.m h
    && Graph.is_subgraph r.Dist_spanner.spanner ~of_:h)

let test_local_model_zero_rounds () =
  let g = Generators.cycle 4 in
  let states, stats =
    Local_model.run g ~rounds:0 ~init:(fun v -> v) ~step:(fun ~round:_ ~me:_ ~neighbors:_ s _ -> (s, []))
  in
  check Alcotest.int "no rounds" 0 stats.Local_model.rounds;
  check Alcotest.(array int) "states untouched" [| 0; 1; 2; 3 |] states

(* ---- congestion opt corner ---- *)

let test_copt_single_request () =
  let g = Generators.path 6 in
  let c = Graph.snapshot g in
  let rng = Prng.create 6 in
  let routing = Congestion_opt.route c rng [| { Routing.src = 0; dst = 5 } |] in
  check Alcotest.int "unique path" 5 (Routing.length routing.(0))

let test_copt_zero_requests () =
  let g = Generators.path 4 in
  let c = Graph.snapshot g in
  check Alcotest.int "empty problem" 0 (Congestion_opt.congestion c (Prng.create 7) [||])

let () =
  Alcotest.run "edge-cases"
    [
      ( "graph",
        [
          Alcotest.test_case "empty graph" `Quick test_empty_graph;
          Alcotest.test_case "single node" `Quick test_single_node;
          Alcotest.test_case "of_edges dedup" `Quick test_of_edges_dedup;
          Alcotest.test_case "triangle commons" `Quick test_common_neighbors_adjacent_nodes;
          Alcotest.test_case "fold neighbors" `Quick test_fold_neighbors;
          Alcotest.test_case "edge array" `Quick test_edge_array_matches_edges;
          Alcotest.test_case "csr binary search" `Quick test_csr_mem_edge_extremes;
        ] );
      ( "generators",
        [
          Alcotest.test_case "tiny instances" `Quick test_generators_tiny;
          Alcotest.test_case "d = 0, 1" `Quick test_random_regular_d0_d1;
          Alcotest.test_case "small torus" `Quick test_torus_small_dims;
          Alcotest.test_case "theorem4 degrees" `Quick test_theorem4_degrees_balanced;
        ] );
      ( "util",
        [
          Alcotest.test_case "fmt_float branches" `Quick test_fmt_float_branches;
          Alcotest.test_case "split deterministic" `Quick test_split_deterministic;
        ] );
      ( "routing",
        [
          Alcotest.test_case "self request" `Quick test_routing_self_request_path;
          Alcotest.test_case "duplicate requests" `Quick test_decompose_duplicate_requests;
          Alcotest.test_case "coloring empty/single" `Quick test_edge_coloring_empty_and_single;
          Alcotest.test_case "copt single request" `Quick test_copt_single_request;
          Alcotest.test_case "copt empty" `Quick test_copt_zero_requests;
        ] );
      ( "spanner",
        [
          Alcotest.test_case "algorithm1 tiny graphs" `Quick test_algorithm1_on_tiny_graphs;
          Alcotest.test_case "theorem2 on clique" `Quick test_expander_dc_on_clique;
          Alcotest.test_case "greedy empty" `Quick test_greedy_empty;
          Alcotest.test_case "baswana-sen tiny" `Quick test_baswana_sen_tiny;
        ] );
      ( "lowerbound",
        [
          Alcotest.test_case "ray-line k=1" `Quick test_ray_line_k1;
          Alcotest.test_case "lemma2 size 1" `Quick test_lemma2_size_1;
        ] );
      ( "distributed",
        [
          Alcotest.test_case "clique" `Quick test_dist_spanner_on_clique;
          Alcotest.test_case "zero rounds" `Quick test_local_model_zero_rounds;
        ] );
    ]
