(* Tests for the extension modules: congestion-minimizing routing (heuristic
   + exact), the DC-property checker, the k-hop and arbitrary-degree
   DC-spanner generalizations, heavy-tailed generators, and graph I/O. *)

let check = Alcotest.check

(* ---- Congestion_opt ---- *)

let test_copt_validity () =
  let g = Generators.torus 6 6 in
  let c = Graph.snapshot g in
  let rng = Prng.create 1 in
  let problem = Problems.random_pairs rng g ~k:40 in
  let routing = Congestion_opt.route c rng problem in
  check Alcotest.bool "valid" true (Routing.is_valid g problem routing);
  (* slack 0: every path is a shortest path *)
  Array.iteri
    (fun i { Routing.src; dst } ->
      check Alcotest.int "shortest" (Bfs.distance c src dst) (Routing.length routing.(i)))
    problem

let test_copt_improves_on_sp () =
  (* The optimizer should never be (much) worse than random shortest paths;
     check across several seeds that it is <= the random-SP congestion. *)
  let g = Generators.torus 7 7 in
  let c = Graph.snapshot g in
  for seed = 1 to 5 do
    let rng = Prng.create seed in
    let problem = Problems.random_pairs rng g ~k:60 in
    let sp = Sp_routing.congestion_of_problem c (Prng.create (seed + 100)) problem in
    let opt = Congestion_opt.congestion c (Prng.create (seed + 200)) problem in
    check Alcotest.bool (Printf.sprintf "opt %d <= sp %d (seed %d)" opt sp seed) true (opt <= sp)
  done

let test_copt_star_forced () =
  (* On a star every path between leaves crosses the center: congestion = k
     regardless of routing. *)
  let g = Generators.star 10 in
  let c = Graph.snapshot g in
  let rng = Prng.create 3 in
  let problem = [| { Routing.src = 1; dst = 2 }; { Routing.src = 3; dst = 4 } |] in
  check Alcotest.int "star congestion" 2 (Congestion_opt.congestion c rng problem)

let test_copt_slack_helps () =
  (* Two requests sharing the only shortest path; one extra hop lets the
     second avoid the middle.  Graph: path 0-1-2 plus detour 0-3-4-2. *)
  let g = Graph.of_edges 5 [ (0, 1); (1, 2); (0, 3); (3, 4); (4, 2) ] in
  let c = Graph.snapshot g in
  let problem = [| { Routing.src = 0; dst = 2 }; { Routing.src = 0; dst = 2 } |] in
  let rng = Prng.create 4 in
  let tight = Congestion_opt.congestion c rng problem in
  check Alcotest.int "no slack: both on 0-1-2" 2 tight;
  let loose = Congestion_opt.route ~slack:1 c (Prng.create 5) problem in
  check Alcotest.bool "valid with slack" true (Routing.is_valid g problem loose);
  (* endpoints 0 and 2 are shared anyway, so congestion stays 2, but the
     middle should split: node 1 carries at most one path *)
  let loads = Routing.node_loads ~n:5 loose in
  check Alcotest.bool "middle splits" true (loads.(1) <= 1)

let test_copt_exact_known_instances () =
  let c4 = Graph.snapshot (Generators.cycle 4) in
  let problem = [| { Routing.src = 0; dst = 2 }; { Routing.src = 1; dst = 3 } |] in
  (match Congestion_opt.exact c4 problem with
  | None -> Alcotest.fail "expected exact result"
  | Some (c, routing) ->
      check Alcotest.int "C4 crossing pairs" 2 c;
      check Alcotest.bool "routing valid" true
        (Routing.is_valid (Generators.cycle 4) problem routing));
  (* two independent requests on a 6-cycle can be routed disjointly *)
  let c6 = Graph.snapshot (Generators.cycle 6) in
  let problem6 = [| { Routing.src = 0; dst = 1 }; { Routing.src = 3; dst = 4 } |] in
  match Congestion_opt.exact c6 problem6 with
  | None -> Alcotest.fail "expected exact result"
  | Some (c, _) -> check Alcotest.int "disjoint requests" 1 c

let test_copt_exact_vs_heuristic () =
  (* On random small instances the heuristic must be >= the optimum and the
     optimum must be >= 1; also exact <= congestion of deterministic SP. *)
  for seed = 1 to 10 do
    let rng = Prng.create seed in
    let g = Generators.erdos_renyi rng 14 0.3 in
    if Connectivity.is_connected g then begin
      let c = Graph.snapshot g in
      let problem = Problems.random_pairs rng g ~k:5 in
      match Congestion_opt.exact c problem with
      | None -> () (* too many shortest paths; fine *)
      | Some (opt, routing) ->
          check Alcotest.bool "exact routing valid" true (Routing.is_valid g problem routing);
          check Alcotest.int "exact congestion consistent" opt
            (Routing.congestion ~n:14 routing);
          let heur = Congestion_opt.congestion c (Prng.create (seed + 50)) problem in
          check Alcotest.bool
            (Printf.sprintf "heuristic %d >= optimal %d" heur opt)
            true (heur >= opt);
          let sp = Routing.congestion ~n:14 (Sp_routing.route c problem) in
          check Alcotest.bool "optimal <= deterministic SP" true (opt <= sp)
    end
  done

let test_copt_disconnected_raises () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  let c = Graph.snapshot g in
  let rng = Prng.create 9 in
  check Alcotest.bool "raises" true
    (try
       ignore (Congestion_opt.route c rng [| { Routing.src = 0; dst = 3 } |]);
       false
     with Invalid_argument _ -> true)

(* ---- Dc_check ---- *)

let algorithm1 = Construction.find_exn "algorithm1"

let regular seed n d =
  let d = if n * d mod 2 = 1 then d + 1 else d in
  Generators.random_regular (Prng.create seed) n d

let test_dc_check_pass () =
  let g = regular 11 120 30 in
  let rng = Prng.create 12 in
  let dc = Construction.build algorithm1 rng g in
  let problem = Problems.edge_matching rng g in
  let routing = Array.map (fun { Routing.src; dst } -> [| src; dst |]) problem in
  let beta = 3.0 *. sqrt 30.0 in
  let verdict = Dc_check.check_routing ~alpha:3.0 ~beta dc rng routing in
  check Alcotest.bool "ok" true verdict.Dc_check.ok;
  check Alcotest.bool "dist <= 3" true (verdict.Dc_check.dist_stretch <= 3.0);
  check Alcotest.(list bool) "no violations" []
    (List.map (fun _ -> true) verdict.Dc_check.violations)

let test_dc_check_distance_violation_detected () =
  let g = regular 13 120 30 in
  let rng = Prng.create 14 in
  let dc = Construction.build algorithm1 rng g in
  (* find a removed edge; its substitute has length 2 or 3 > alpha = 1 *)
  let removed = ref None in
  Graph.iter_edges g (fun u v ->
      if !removed = None && not (Graph.mem_edge dc.Dc.spanner u v) then removed := Some (u, v));
  match !removed with
  | None -> Alcotest.fail "expected a removed edge"
  | Some (u, v) ->
      let verdict = Dc_check.check_routing ~alpha:1.0 ~beta:1000.0 dc rng [| [| u; v |] |] in
      check Alcotest.bool "not ok" false verdict.Dc_check.ok;
      check Alcotest.bool "distance violation" true
        (List.exists
           (function Dc_check.Distance _ -> true | _ -> false)
           verdict.Dc_check.violations)

let test_dc_check_congestion_violation_detected () =
  (* beta = 0.1 is unsatisfiable whenever the substitute uses any node. *)
  let g = regular 15 100 26 in
  let rng = Prng.create 16 in
  let dc = Construction.build algorithm1 rng g in
  let problem = Problems.edge_matching rng g in
  let routing = Array.map (fun { Routing.src; dst } -> [| src; dst |]) problem in
  let verdict = Dc_check.check_routing ~alpha:3.0 ~beta:0.1 dc rng routing in
  check Alcotest.bool "congestion violation" true
    (List.exists (function Dc_check.Congestion _ -> true | _ -> false) verdict.Dc_check.violations)

let test_dc_check_estimate () =
  let g = regular 17 120 30 in
  let rng = Prng.create 18 in
  let dc = Construction.build algorithm1 rng g in
  let beta = 12.0 *. (1.0 +. (2.0 *. sqrt 30.0)) *. Stats.log2 120.0 in
  let e = Dc_check.estimate ~trials:8 ~alpha:3.0 ~beta dc rng in
  check Alcotest.int "trials" 8 e.Dc_check.trials;
  check (Alcotest.float 1e-9) "rate 1.0 at the theorem's beta" 1.0 e.Dc_check.rate;
  check Alcotest.bool "worst dist <= 3" true (e.Dc_check.worst_dist <= 3.0 +. 1e-9)

(* ---- Khop_dc ---- *)

let test_khop_k1_identity () =
  let g = regular 21 80 20 in
  let rng = Prng.create 22 in
  let t = Khop_dc.build ~k:1 rng g in
  check Alcotest.int "k=1 keeps G" (Graph.m g) (Graph.m t.Khop_dc.spanner)

let test_khop_stretch_certificate () =
  List.iter
    (fun k ->
      let g = regular (30 + k) 200 50 in
      let rng = Prng.create (40 + k) in
      let t = Khop_dc.build ~k rng g in
      check Alcotest.bool "subgraph" true (Graph.is_subgraph t.Khop_dc.spanner ~of_:g);
      let bound = (2 * k) - 1 in
      let s = Stretch.exact_bounded g t.Khop_dc.spanner ~bound in
      check Alcotest.bool
        (Printf.sprintf "stretch %d <= %d (k=%d)" s bound k)
        true (s <= bound))
    [ 2; 3; 4 ]

let test_khop_sparser_with_larger_k () =
  (* k = 3 samples at Delta^{-2/3} < Delta^{-1/2} and should beat k = 2; for
     larger k at this scale the repair flood can dominate (the sampled graph
     gets too sparse to provide (2k-1)-detours), so no monotonicity is
     asserted beyond that — the bench block shows the full frontier. *)
  let g = regular 51 300 80 in
  let size k = Graph.m (Khop_dc.build ~k (Prng.create 52) g).Khop_dc.spanner in
  let m2 = size 2 and m3 = size 3 in
  check Alcotest.bool (Printf.sprintf "k=3 (%d) sparser than k=2 (%d)" m3 m2) true (m3 <= m2);
  check Alcotest.bool "both sparser than G" true (m2 < Graph.m g)

let test_khop_router () =
  let g = regular 53 150 40 in
  let rng = Prng.create 54 in
  let t = Khop_dc.build ~k:3 rng g in
  let dc = Khop_dc.to_dc t g in
  let m = Matching.random_maximal rng g in
  let problem = Routing.problem_of_edges m in
  let paths = dc.Dc.route_matching rng m in
  check Alcotest.bool "valid in H" true (Routing.is_valid t.Khop_dc.spanner problem paths);
  Array.iter (fun p -> check Alcotest.bool "length <= 5" true (Routing.length p <= 5)) paths

let test_khop_custom_rho () =
  let g = regular 55 100 30 in
  let t = Khop_dc.build ~rho:1.0 ~k:2 (Prng.create 56) g in
  check Alcotest.int "rho=1 keeps G" (Graph.m g) (Graph.m t.Khop_dc.spanner)

(* ---- Irregular_dc ---- *)

let heavy_tailed seed n =
  let rng = Prng.create seed in
  let w = Generators.power_law_weights rng ~n ~exponent:2.5 ~w_min:8.0 in
  let g = Generators.chung_lu rng w in
  (* make sure the playground is connected for routing tests *)
  let backbone = Generators.cycle n in
  ignore (Connectivity.repair g ~within:backbone);
  g

let test_irregular_stretch () =
  List.iter
    (fun seed ->
      let g = heavy_tailed seed 150 in
      let rng = Prng.create (seed + 5) in
      let t = Irregular_dc.build rng g in
      check Alcotest.bool "subgraph" true (Graph.is_subgraph t.Irregular_dc.spanner ~of_:g);
      check Alcotest.bool "3-spanner" true (Stretch.is_three_spanner g t.Irregular_dc.spanner))
    [ 1; 2; 3 ]

let test_irregular_router () =
  let g = heavy_tailed 7 150 in
  let rng = Prng.create 8 in
  let t = Irregular_dc.build rng g in
  let dc = Irregular_dc.to_dc t g in
  let m = Matching.random_maximal rng g in
  let problem = Routing.problem_of_edges m in
  let paths = dc.Dc.route_matching rng m in
  check Alcotest.bool "valid in H" true (Routing.is_valid t.Irregular_dc.spanner problem paths)

let test_irregular_on_regular_matches_shape () =
  (* On a regular graph the degree-local rule coincides with Algorithm 1's
     sampling rate; sizes should be in the same ballpark. *)
  let g = regular 61 200 50 in
  let t_irr = Irregular_dc.build (Prng.create 62) g in
  let t_reg = Regular_dc.build (Prng.create 62) g in
  let m_irr = Graph.m t_irr.Irregular_dc.spanner in
  let m_reg = Graph.m t_reg.Regular_dc.spanner in
  check Alcotest.bool
    (Printf.sprintf "same ballpark: %d vs %d" m_irr m_reg)
    true
    (float_of_int m_irr < 2.0 *. float_of_int m_reg
    && float_of_int m_reg < 2.0 *. float_of_int m_irr)

let test_irregular_keeps_low_degree_edges () =
  (* Pendant-ish structure: low-degree edges sample at rate ~1 and survive. *)
  let g = Graph.copy (Generators.star 30) in
  ignore (Graph.add_edge g 1 2);
  let t = Irregular_dc.build (Prng.create 63) g in
  check Alcotest.int "nothing lost on a star" (Graph.m g) (Graph.m t.Irregular_dc.spanner)

(* ---- heavy-tailed generators ---- *)

let test_power_law_weights () =
  let rng = Prng.create 71 in
  let w = Generators.power_law_weights rng ~n:500 ~exponent:2.5 ~w_min:4.0 in
  check Alcotest.int "size" 500 (Array.length w);
  Array.iter
    (fun x ->
      check Alcotest.bool "above w_min" true (x >= 4.0 -. 1e-9);
      check Alcotest.bool "capped" true (x <= sqrt (500.0 *. 4.0) +. 1e-9))
    w

let test_chung_lu_degrees () =
  let rng = Prng.create 72 in
  let n = 300 in
  let w = Array.make n 12.0 in
  let g = Generators.chung_lu rng w in
  (* constant weights: expected degree ~ w (up to the (n-1)/n factor) *)
  let mean_deg = 2.0 *. float_of_int (Graph.m g) /. float_of_int n in
  check Alcotest.bool (Printf.sprintf "mean degree %.1f near 12" mean_deg) true
    (mean_deg > 9.0 && mean_deg < 15.0)

let test_preferential_attachment () =
  let rng = Prng.create 73 in
  let n = 400 and m = 4 in
  let g = Generators.preferential_attachment rng ~n ~m in
  check Alcotest.int "n nodes" n (Graph.n g);
  check Alcotest.bool "connected" true (Connectivity.is_connected g);
  let expected_m = ((m + 1) * m / 2) + ((n - m - 1) * m) in
  check Alcotest.bool
    (Printf.sprintf "edge count %d near %d" (Graph.m g) expected_m)
    true
    (Graph.m g > (9 * expected_m) / 10 && Graph.m g <= expected_m);
  (* heavy tail: max degree well above the mean *)
  let mean_deg = 2.0 *. float_of_int (Graph.m g) /. float_of_int n in
  check Alcotest.bool "hub exists" true (float_of_int (Graph.max_degree g) > 3.0 *. mean_deg)

let test_preferential_attachment_rejects () =
  let rng = Prng.create 74 in
  check Alcotest.bool "m >= n rejected" true
    (try
       ignore (Generators.preferential_attachment rng ~n:3 ~m:3);
       false
     with Invalid_argument _ -> true)

(* ---- Graph_io ---- *)

let roundtrip g =
  let path = Filename.temp_file "dcs_test" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.write g path;
      Graph_io.read path)

let test_io_roundtrip () =
  List.iter
    (fun g ->
      let g' = roundtrip g in
      check Alcotest.int "n" (Graph.n g) (Graph.n g');
      check Alcotest.int "m" (Graph.m g) (Graph.m g');
      check Alcotest.bool "same edges" true (Graph.is_subgraph g' ~of_:g))
    [
      Generators.torus 5 5;
      Generators.complete 10;
      Graph.create 7;
      Generators.erdos_renyi (Prng.create 81) 40 0.15;
    ]

let parse_string s =
  let path = Filename.temp_file "dcs_test" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc s;
      close_out oc;
      Graph_io.read path)

let test_io_comments_and_whitespace () =
  let g = parse_string "# a comment\n\nn 4 2\n0 1\n\n# another\n2\t3\n" in
  check Alcotest.int "n" 4 (Graph.n g);
  check Alcotest.int "m" 2 (Graph.m g);
  check Alcotest.bool "edge" true (Graph.mem_edge g 2 3)

let test_io_malformed () =
  let expect_fail s =
    check Alcotest.bool s true
      (try
         ignore (parse_string s);
         false
       with Io_error.Parse_error _ -> true)
  in
  expect_fail "0 1\n";
  expect_fail "n 4 1\n0 4\n";
  expect_fail "n 4 1\n1 1\n";
  expect_fail "n 4 2\n0 1\n";
  expect_fail "n x y\n";
  expect_fail ""

(* ---- qcheck ---- *)

let prop_khop_stretch =
  QCheck.Test.make ~name:"khop stretch bound" ~count:15
    QCheck.(pair small_int (int_range 2 4))
    (fun (seed, k) ->
      let g = regular (seed + 300) 120 30 in
      let t = Khop_dc.build ~k (Prng.create seed) g in
      let s = Stretch.exact_bounded g t.Khop_dc.spanner ~bound:((2 * k) - 1) in
      s <= (2 * k) - 1)

let prop_io_roundtrip =
  QCheck.Test.make ~name:"graph io roundtrip" ~count:30
    QCheck.(pair small_int (int_range 1 40))
    (fun (seed, n) ->
      let g = Generators.erdos_renyi (Prng.create seed) n 0.3 in
      let g' = roundtrip g in
      Graph.m g = Graph.m g' && Graph.is_subgraph g' ~of_:g)

let prop_copt_never_worse_than_det_sp =
  QCheck.Test.make ~name:"congestion_opt <= deterministic SP congestion" ~count:20
    QCheck.(pair small_int (int_range 5 40))
    (fun (seed, k) ->
      let g = Generators.torus 6 6 in
      let c = Graph.snapshot g in
      let rng = Prng.create seed in
      let problem = Problems.random_pairs rng g ~k in
      let det = Routing.congestion ~n:36 (Sp_routing.route c problem) in
      let opt = Congestion_opt.congestion c (Prng.create (seed + 1)) problem in
      opt <= det)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "extensions"
    [
      ( "congestion-opt",
        [
          Alcotest.test_case "validity" `Quick test_copt_validity;
          Alcotest.test_case "improves on sp" `Quick test_copt_improves_on_sp;
          Alcotest.test_case "star forced" `Quick test_copt_star_forced;
          Alcotest.test_case "slack helps" `Quick test_copt_slack_helps;
          Alcotest.test_case "exact known instances" `Quick test_copt_exact_known_instances;
          Alcotest.test_case "exact vs heuristic" `Quick test_copt_exact_vs_heuristic;
          Alcotest.test_case "disconnected raises" `Quick test_copt_disconnected_raises;
        ] );
      ( "dc-check",
        [
          Alcotest.test_case "passes at theorem bounds" `Quick test_dc_check_pass;
          Alcotest.test_case "distance violation" `Quick test_dc_check_distance_violation_detected;
          Alcotest.test_case "congestion violation" `Quick
            test_dc_check_congestion_violation_detected;
          Alcotest.test_case "estimate" `Quick test_dc_check_estimate;
        ] );
      ( "khop",
        [
          Alcotest.test_case "k=1 identity" `Quick test_khop_k1_identity;
          Alcotest.test_case "stretch certificate" `Quick test_khop_stretch_certificate;
          Alcotest.test_case "sparser with larger k" `Quick test_khop_sparser_with_larger_k;
          Alcotest.test_case "router" `Quick test_khop_router;
          Alcotest.test_case "custom rho" `Quick test_khop_custom_rho;
        ] );
      ( "irregular",
        [
          Alcotest.test_case "stretch on heavy-tailed" `Quick test_irregular_stretch;
          Alcotest.test_case "router" `Quick test_irregular_router;
          Alcotest.test_case "regular ballpark" `Quick test_irregular_on_regular_matches_shape;
          Alcotest.test_case "keeps low-degree edges" `Quick test_irregular_keeps_low_degree_edges;
        ] );
      ( "generators",
        [
          Alcotest.test_case "power-law weights" `Quick test_power_law_weights;
          Alcotest.test_case "chung-lu degrees" `Quick test_chung_lu_degrees;
          Alcotest.test_case "preferential attachment" `Quick test_preferential_attachment;
          Alcotest.test_case "pa rejects" `Quick test_preferential_attachment_rejects;
        ] );
      ( "graph-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "comments/whitespace" `Quick test_io_comments_and_whitespace;
          Alcotest.test_case "malformed" `Quick test_io_malformed;
        ] );
      ("properties", q [ prop_khop_stretch; prop_io_roundtrip; prop_copt_never_worse_than_det_sp ]);
    ]
