(* Integration tests for the construction registry (Construction) and the
   shared experiment harness: every construction end-to-end on suitable
   graphs. *)

let check = Alcotest.check

let expander seed n d =
  let d = if n * d mod 2 = 1 then d + 1 else d in
  Generators.random_regular (Prng.create seed) n d

let build name = Construction.build (Construction.find_exn name)

let all_algorithms =
  [
    "theorem2"; "algorithm1"; "greedy"; "baswana-sen"; "spectral"; "bounded-degree"; "khop-5";
    "irregular";
  ]

let test_algorithm_names_unique () =
  (* test_registry checks the names; the label each construction's Dc.t
     reports under must be unique too *)
  let g = expander 1 60 20 in
  let labels =
    List.map (fun c -> (Construction.build c (Prng.create 7) g).Dc.name) Construction.all
  in
  let uniq = List.sort_uniq compare labels in
  check Alcotest.int "unique labels" (List.length labels) (List.length uniq)

let test_build_all_algorithms () =
  let g = expander 1 120 34 in
  List.iter
    (fun algo ->
      let rng = Prng.create 7 in
      let dc = build algo rng g in
      check Alcotest.bool (algo ^ ": spanner subgraph") true
        (Graph.is_subgraph dc.Dc.spanner ~of_:g);
      (* route one matching through each *)
      let m = Matching.random_maximal rng g in
      let paths = dc.Dc.route_matching rng m in
      let problem = Routing.problem_of_edges m in
      check Alcotest.bool (algo ^ ": routing valid") true
        (Routing.is_valid dc.Dc.spanner problem paths))
    all_algorithms

let test_build_deterministic () =
  let g = expander 2 100 30 in
  let spanner () = (build "algorithm1" (Prng.create 13) g).Dc.spanner in
  let a = spanner () and b = spanner () in
  check Alcotest.int "same edge count" (Graph.m a) (Graph.m b);
  check Alcotest.bool "same edges" true (Graph.is_subgraph a ~of_:b)

let test_dc_spanners_have_stretch_3 () =
  let g = expander 3 150 40 in
  List.iter
    (fun algo ->
      let rng = Prng.create 19 in
      let dc = build algo rng g in
      check Alcotest.bool (algo ^ ": stretch <= 3") true (Stretch.exact g dc.Dc.spanner <= 3))
    [ "theorem2"; "algorithm1"; "greedy"; "baswana-sen" ]

let test_evaluate_row () =
  let g = expander 4 100 30 in
  let rng = Prng.create 23 in
  let dc = build "algorithm1" rng g in
  let row = Experiment.evaluate ~trials:2 rng dc in
  check Alcotest.int "n" 100 row.Experiment.n;
  check Alcotest.int "m(G)" (Graph.m g) row.Experiment.m_graph;
  check Alcotest.int "m(H)" (Graph.m dc.Dc.spanner) row.Experiment.m_spanner;
  check Alcotest.bool "lambda measured" true (row.Experiment.lambda > 0.0);
  check Alcotest.bool "dist stretch <= 3" true (row.Experiment.dist_stretch <= 3);
  check Alcotest.bool "matching measured" true
    (row.Experiment.matching.Dc.mean_congestion >= 1.0);
  (match row.Experiment.general with
  | None -> Alcotest.fail "expected general measurement"
  | Some gen ->
      check Alcotest.bool "general stretch >= 0" true (gen.Dc.stretch >= 0.0);
      check Alcotest.bool "dist stretch of substitute <= 3" true (gen.Dc.dist_stretch <= 3.0));
  let cells = Experiment.row_cells row ~norm_exp:(5.0 /. 3.0) in
  check Alcotest.int "cells match columns" (List.length Experiment.row_columns) (List.length cells)

let test_evaluate_without_general () =
  let g = expander 5 80 24 in
  let rng = Prng.create 29 in
  let dc = build "theorem2" rng g in
  let row = Experiment.evaluate ~trials:1 ~with_general:false ~with_lambda:false rng dc in
  check Alcotest.bool "no general" true (row.Experiment.general = None);
  check (Alcotest.float 1e-9) "lambda skipped" 0.0 row.Experiment.lambda;
  let cells = Experiment.row_cells row ~norm_exp:1.0 in
  check Alcotest.int "cells still render" (List.length Experiment.row_columns) (List.length cells)

let test_edges_norm () =
  let g = expander 6 64 20 in
  let rng = Prng.create 31 in
  let dc = build "bounded-degree" rng g in
  let row = Experiment.evaluate ~trials:1 ~with_general:false ~with_lambda:false rng dc in
  check (Alcotest.float 1e-9) "norm exponent 0 = raw edges"
    (float_of_int row.Experiment.m_spanner)
    (Experiment.edges_norm row 0.0)

let test_classic_vs_dc_on_lower_bound_family () =
  (* The motivating comparison: on the Theorem 4 family, a pure distance
     spanner of optimal size has congestion stretch k; the full graph (a
     trivial DC-spanner) has stretch 1. *)
  let rng = Prng.create 37 in
  let t = Theorem4.make rng ~pool:300 ~instances:25 ~k:3 in
  let h, removed = Theorem4.optimal_spanner t in
  check Alcotest.bool "optimal spanner is 3-distance" true
    (Stretch.is_three_spanner t.Theorem4.graph h);
  let n = Graph.n t.Theorem4.graph in
  let worst = ref 0 in
  for i = 0 to 24 do
    ignore removed;
    let c = Routing.congestion ~n (Theorem4.forced_routing t i) in
    worst := max !worst c
  done;
  check Alcotest.int "congestion stretch = k" 3 !worst

let () =
  Alcotest.run "core"
    [
      ( "facade",
        [
          Alcotest.test_case "algorithm names" `Quick test_algorithm_names_unique;
          Alcotest.test_case "build all" `Quick test_build_all_algorithms;
          Alcotest.test_case "deterministic" `Quick test_build_deterministic;
          Alcotest.test_case "stretch-3 constructions" `Quick test_dc_spanners_have_stretch_3;
        ] );
      ( "experiment",
        [
          Alcotest.test_case "evaluate row" `Quick test_evaluate_row;
          Alcotest.test_case "evaluate minimal" `Quick test_evaluate_without_general;
          Alcotest.test_case "edges norm" `Quick test_edges_norm;
          Alcotest.test_case "lower-bound family comparison" `Quick
            test_classic_vs_dc_on_lower_bound_family;
        ] );
    ]
