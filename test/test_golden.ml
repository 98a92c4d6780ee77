(* Golden regression tests.

   Every randomized component draws from the explicit SplitMix64 generator,
   so whole pipelines are bit-reproducible.  These tests pin down exact
   outputs for fixed seeds: any unintended change to sampling order, RNG
   consumption, or algorithm structure shows up as a golden mismatch even if
   all behavioural invariants still hold.  (If you change an algorithm
   deliberately, re-derive the constants with `bin/golden_probe.ml`.) *)

let check = Alcotest.check

let base_graph () = Generators.random_regular (Prng.create 1) 60 20

let test_graph_golden () =
  let g = base_graph () in
  check Alcotest.int "m(G)" 600 (Graph.m g);
  check Alcotest.bool "regular" true (Graph.is_regular g);
  (* spectral estimate is deterministic given the fixed internal seed *)
  let lam = Spectral.lambda (Graph.snapshot g) in
  check (Alcotest.float 1e-4) "lambda" 7.188976 lam

let test_algorithm1_golden () =
  let g = base_graph () in
  let t = Regular_dc.build (Prng.create 2) g in
  check Alcotest.int "m(H)" 243 (Graph.m t.Regular_dc.spanner);
  check Alcotest.int "m(G')" 141 (Graph.m t.Regular_dc.sampled);
  check Alcotest.int "reinserted" 0 t.Regular_dc.reinserted;
  check Alcotest.int "repaired" 102 t.Regular_dc.repaired

let test_theorem2_golden () =
  let g = base_graph () in
  let e = Expander_dc.build (Prng.create 3) g in
  check Alcotest.int "m(H)" 467 (Graph.m e.Expander_dc.spanner);
  check (Alcotest.float 1e-6) "p" 0.766309 e.Expander_dc.p

let test_theorem2_routes_golden () =
  (* Each removed edge routes over a random surviving detour of its Lemma 4
     matching, so the routes pin the matchings themselves. *)
  let g = base_graph () in
  let e = Expander_dc.build (Prng.create 3) g in
  let r = Dc.measure_matching (Expander_dc.to_dc e g) (Prng.create 4) ~trials:3 in
  check (Alcotest.float 1e-6) "mean congestion" 2.666667 r.Dc.mean_congestion;
  check Alcotest.int "max congestion" 3 r.Dc.max_congestion;
  check (Alcotest.float 1e-6) "mean path length" 1.397727 r.Dc.mean_path_len;
  check Alcotest.int "max path length" 3 r.Dc.max_path_len;
  (* the same three matchings again, route by route *)
  let route = (Expander_dc.to_dc e g).Dc.route_matching in
  let rng = Prng.create 4 in
  let two = ref 0 and three = ref 0 and inner = ref 0 in
  for _ = 1 to 3 do
    let m = Matching.random_maximal rng g in
    Array.iter
      (fun p ->
        let len = Routing.length p in
        if len = 2 then incr two else if len = 3 then incr three;
        for i = 1 to len - 1 do
          inner := !inner + p.(i)
        done)
      (route rng m)
  done;
  check Alcotest.int "two-hop routes" 7 !two;
  check Alcotest.int "three-hop routes" 14 !three;
  check Alcotest.int "sum of intermediate nodes" 1032 !inner

(* Per registry entry: m(H); then, over three random maximal matchings routed
   in turn, the 2-hop and 3-hop route counts and the sum of the routes'
   intermediate nodes; then the routing generator's next draw, which pins how
   many draws the router made.  Every entry builds on the same G.  A new
   registry entry needs its row here. *)
let route_digests =
  [
    ("theorem2", (470, 8, 12, 940, 536822));
    ("bounded-degree", (483, 12, 0, 341, 136913));
    ("spectral", (600, 0, 0, 0, 593260));
    ("algorithm1", (243, 9, 39, 2586, 424278));
    ("greedy", (121, 21, 46, 1298, 239525));
    ("baswana-sen", (397, 27, 0, 786, 85301));
    ("elkin-neiman", (387, 14, 16, 1239, 847099));
    ("khop-5", (266, 32, 19, 1885, 727503));
    ("khop-7", (325, 27, 11, 1142, 593260));
    ("irregular", (286, 8, 37, 2415, 728010));
  ]

let route_digest g c =
  let dc = Construction.build c (Prng.create 2) g in
  let rng = Prng.create 4 in
  let two = ref 0 and three = ref 0 and inner = ref 0 in
  for _ = 1 to 3 do
    let m = Matching.random_maximal rng g in
    Array.iter
      (fun p ->
        let len = Routing.length p in
        if len = 2 then incr two else if len = 3 then incr three;
        for i = 1 to len - 1 do
          inner := !inner + p.(i)
        done)
      (dc.Dc.route_matching rng m)
  done;
  (Graph.m dc.Dc.spanner, !two, !three, !inner, Prng.int rng 1_000_000)

let test_route_digests_golden () =
  let digest = Alcotest.(pair int (pair int (pair int (pair int int)))) in
  let nest (m, two, three, inner, next) = (m, (two, (three, (inner, next)))) in
  let g = base_graph () in
  List.iter
    (fun c ->
      let name = c.Construction.name in
      match List.assoc_opt name route_digests with
      | None -> Alcotest.failf "%s: no pinned route digest" name
      | Some want -> check digest name (nest want) (nest (route_digest g c)))
    Construction.all;
  check Alcotest.int "one row per entry" (List.length Construction.all) (List.length route_digests)

let test_matching_congestion_golden () =
  let g = base_graph () in
  let t = Regular_dc.build (Prng.create 2) g in
  let dc = Regular_dc.to_dc t g in
  let r = Dc.measure_matching dc (Prng.create 4) ~trials:3 in
  check (Alcotest.float 1e-6) "mean congestion" 4.000000 r.Dc.mean_congestion;
  check Alcotest.int "max congestion" 4 r.Dc.max_congestion

let test_classic_golden () =
  let g = base_graph () in
  check Alcotest.int "baswana-sen size" 334
    (Graph.m (Baswana_sen_weighted.build ~k:2 (Prng.create 5) g));
  check Alcotest.int "greedy size" 121 (Graph.m (Classic.greedy g ~k:2))

let test_distributed_golden () =
  let g = base_graph () in
  let d = Dist_spanner.run ~seed:6 g in
  check Alcotest.int "spanner size" 229 (Graph.m d.Dist_spanner.spanner);
  check Alcotest.int "messages" 4200 d.Dist_spanner.messages;
  check Alcotest.int "rounds" 6 d.Dist_spanner.rounds

let test_repeated_builds_identical () =
  (* Beyond pinned constants: the same seed twice gives the same edge sets. *)
  let g = base_graph () in
  let t1 = Regular_dc.build (Prng.create 2) g in
  let t2 = Regular_dc.build (Prng.create 2) g in
  check Alcotest.bool "same spanner" true
    (Graph.m t1.Regular_dc.spanner = Graph.m t2.Regular_dc.spanner
    && Graph.is_subgraph t1.Regular_dc.spanner ~of_:t2.Regular_dc.spanner);
  let g' = base_graph () in
  check Alcotest.bool "same generated graph" true
    (Graph.m g = Graph.m g' && Graph.is_subgraph g ~of_:g')

let () =
  Alcotest.run "golden"
    [
      ( "golden",
        [
          Alcotest.test_case "graph + lambda" `Quick test_graph_golden;
          Alcotest.test_case "algorithm 1" `Quick test_algorithm1_golden;
          Alcotest.test_case "theorem 2" `Quick test_theorem2_golden;
          Alcotest.test_case "theorem 2 routes" `Quick test_theorem2_routes_golden;
          Alcotest.test_case "route digests" `Quick test_route_digests_golden;
          Alcotest.test_case "matching congestion" `Quick test_matching_congestion_golden;
          Alcotest.test_case "classic spanners" `Quick test_classic_golden;
          Alcotest.test_case "distributed" `Quick test_distributed_golden;
          Alcotest.test_case "repeatability" `Quick test_repeated_builds_identical;
        ] );
    ]
