(* Tests for dcs_lowerbound: the Lemma 18 gadget, Lemma 19 design, Theorem 4
   composition, Lemma 2 separation family, and the Figure 1 VFT example. *)

let check = Alcotest.check

(* ---- Ray-line gadget (Lemma 18) ---- *)

let test_ray_line_structure () =
  List.iter
    (fun k ->
      let t = Ray_line.make k in
      let g = t.Ray_line.graph in
      check Alcotest.int "|V| = 2k+2" ((2 * k) + 2) (Graph.n g);
      check Alcotest.int "|E| = 3k+1" ((3 * k) + 1) (Graph.m g);
      (* rays touch odd-indexed a's *)
      for i = 0 to k do
        check Alcotest.bool "ray edge" true (Graph.mem_edge g t.Ray_line.s (Ray_line.a t ((2 * i) + 1)))
      done;
      check Alcotest.int "s degree = k+1" (k + 1) (Graph.degree g t.Ray_line.s))
    [ 1; 3; 8 ]

let test_ray_line_extremal_spanner () =
  List.iter
    (fun k ->
      let t = Ray_line.make k in
      let h, removed = Ray_line.extremal_spanner t in
      check Alcotest.int "k edges removed" k (Array.length removed);
      check Alcotest.int "spanner size" ((2 * k) + 1) (Graph.m h);
      check Alcotest.bool "3-distance spanner" true (Stretch.is_three_spanner t.Ray_line.graph h);
      Array.iter
        (fun (u, v) -> check Alcotest.bool "removed from h" false (Graph.mem_edge h u v))
        removed)
    [ 1; 4; 10 ]

let test_ray_line_forced_congestion () =
  let k = 9 in
  let t = Ray_line.make k in
  let h, removed = Ray_line.extremal_spanner t in
  let routing = Ray_line.forced_routing t in
  let problem = Routing.problem_of_edges removed in
  check Alcotest.bool "forced routing valid in spanner" true (Routing.is_valid h problem routing);
  (* every forced path crosses s; optimal congestion of the problem in G is 1 *)
  let n = Graph.n t.Ray_line.graph in
  check Alcotest.int "congestion k at s" k (Routing.congestion ~n routing);
  let in_g = Array.map (fun (u, v) -> [| u; v |]) removed in
  check Alcotest.int "congestion 1 in G" 1 (Routing.congestion ~n in_g);
  (* the forced paths are the *only* <=3 substitutes: removing s disconnects
     the endpoints in H *)
  Array.iter
    (fun (u, v) ->
      let hc = Graph.snapshot h in
      check Alcotest.int "spanner distance exactly 3" 3 (Bfs.distance hc u v))
    removed

let test_ray_line_cannot_remove_more () =
  (* Removing any additional ray edge r_i next to a removed line edge breaks
     the 3-stretch: sanity-check Lemma 18's structural argument on k=3. *)
  let t = Ray_line.make 3 in
  let h, _ = Ray_line.extremal_spanner t in
  (* remove middle ray r_1 = (s, a_3) *)
  ignore (Graph.remove_edge h t.Ray_line.s (Ray_line.a t 3));
  check Alcotest.bool "stretch violated" false (Stretch.is_three_spanner t.Ray_line.graph h)

(* ---- Lemma 19 design ---- *)

let test_design_pairwise_intersection () =
  let rng = Prng.create 3 in
  let d = Design.make rng ~n:400 ~subset_size:5 ~count:60 in
  check Alcotest.int "count" 60 (Array.length d.Design.subsets);
  Array.iter
    (fun s -> check Alcotest.int "size" 5 (Array.length s))
    d.Design.subsets;
  check Alcotest.bool "pairwise <= 1" true (Design.max_pairwise_intersection d <= 1)

let test_design_loads_balanced () =
  let rng = Prng.create 4 in
  let n = 300 and subset_size = 4 and count = 150 in
  let d = Design.make rng ~n ~subset_size ~count in
  let loads = Design.element_loads d in
  let total = Array.fold_left ( + ) 0 loads in
  check Alcotest.int "total load" (subset_size * count) total;
  let mean = float_of_int total /. float_of_int n in
  let max_load = Array.fold_left max 0 loads in
  check Alcotest.bool
    (Printf.sprintf "max load %d vs mean %.1f" max_load mean)
    true
    (float_of_int max_load <= (6.0 *. mean) +. 3.0)

let test_design_too_dense_fails () =
  let rng = Prng.create 5 in
  (* 50 subsets of size 5 over only 10 elements cannot have pairwise
     intersections <= 1 (only C(10,2)=45 pairs available). *)
  check Alcotest.bool "raises" true
    (try
       ignore (Design.make rng ~n:10 ~subset_size:5 ~count:50);
       false
     with Invalid_argument _ -> true)

let test_design_element_range () =
  let rng = Prng.create 6 in
  let d = Design.make rng ~n:100 ~subset_size:3 ~count:30 in
  Array.iter
    (fun s -> Array.iter (fun x -> check Alcotest.bool "in range" true (x >= 0 && x < 100)) s)
    d.Design.subsets

(* ---- Theorem 4 ---- *)

let make_thm4 seed =
  let rng = Prng.create seed in
  Theorem4.make rng ~pool:500 ~instances:40 ~k:4

let test_theorem4_structure () =
  let t = make_thm4 1 in
  let g = t.Theorem4.graph in
  check Alcotest.int "node count" (500 + 40) (Graph.n g);
  (* each instance contributes 3k+1 edges and they are edge-disjoint *)
  check Alcotest.int "edge count" (40 * ((3 * 4) + 1)) (Graph.m g);
  Array.iter
    (fun inst ->
      check Alcotest.int "line size" ((2 * 4) + 1) (Array.length inst.Theorem4.line);
      check Alcotest.int "special degree" (4 + 1) (Graph.degree g inst.Theorem4.special))
    t.Theorem4.instances

let test_theorem4_default_k () =
  check Alcotest.bool "k >= 1" true (Theorem4.default_k ~pool:100 >= 1);
  (* 2k = (n/17)^{1/6}: for n = 17 * 4^6 = 69632, 2k = 4, k = 2 *)
  check Alcotest.int "k formula" 2 (Theorem4.default_k ~pool:(17 * 4096))

let test_theorem4_optimal_spanner () =
  let t = make_thm4 2 in
  let h, removed = Theorem4.optimal_spanner t in
  check Alcotest.int "removed per instance" 40 (Array.length removed);
  Array.iter (fun r -> check Alcotest.int "k removed" 4 (Array.length r)) removed;
  check Alcotest.int "spanner edges" (Graph.m t.Theorem4.graph - (40 * 4)) (Graph.m h);
  check Alcotest.bool "still 3-spanner" true (Stretch.is_three_spanner t.Theorem4.graph h)

let test_theorem4_congestion_blowup () =
  let t = make_thm4 3 in
  let h, removed = Theorem4.optimal_spanner t in
  let n = Graph.n t.Theorem4.graph in
  for i = 0 to Array.length t.Theorem4.instances - 1 do
    let forced = Theorem4.forced_routing t i in
    let problem = Routing.problem_of_edges removed.(i) in
    check Alcotest.bool "forced valid in spanner" true (Routing.is_valid h problem forced);
    check Alcotest.int "spanner congestion = k" t.Theorem4.k (Routing.congestion ~n forced);
    check Alcotest.int "optimal congestion 1" 1 (Routing.congestion ~n (Theorem4.edge_routing t i))
  done

let test_theorem4_forced_is_only_short_option () =
  let t = make_thm4 4 in
  let h, removed = Theorem4.optimal_spanner t in
  let hc = Graph.snapshot h in
  Array.iter
    (fun r ->
      Array.iter
        (fun (u, v) -> check Alcotest.int "distance exactly 3" 3 (Bfs.distance hc u v))
        r)
    removed

(* ---- Lemma 2 ---- *)

let test_lemma2_structure () =
  let t = Lemma2.make ~alpha:3 ~size:10 in
  let g = t.Lemma2.graph in
  (* (2 + alpha) n nodes: alpha interior detour nodes per pair (the proof's
     (alpha+1)-length detours; see Lemma2 doc). *)
  check Alcotest.int "node count" 50 (Graph.n g);
  check Alcotest.bool "spanner subgraph" true (Graph.is_subgraph t.Lemma2.spanner ~of_:g);
  check Alcotest.int "9 matching edges removed" (Graph.m g - 9) (Graph.m t.Lemma2.spanner)

let test_lemma2_three_distance_spanner () =
  let t = Lemma2.make ~alpha:3 ~size:12 in
  check Alcotest.int "exact stretch 3" 3 (Stretch.exact t.Lemma2.graph t.Lemma2.spanner)

let test_lemma2_detour_routing () =
  let t = Lemma2.make ~alpha:3 ~size:10 in
  let problem = Lemma2.matching_problem t in
  let detours = Lemma2.detour_routing t in
  check Alcotest.bool "valid in spanner" true (Routing.is_valid t.Lemma2.spanner problem detours);
  let n = Graph.n t.Lemma2.graph in
  check Alcotest.int "congestion 1" 1 (Routing.congestion ~n detours);
  (* but the paths are longer than alpha: the DC property fails there *)
  Array.iter
    (fun p -> check Alcotest.int "length alpha+1" (t.Lemma2.alpha + 1) (Routing.length p))
    detours

let test_lemma2_short_routing_congestion () =
  let t = Lemma2.make ~alpha:3 ~size:15 in
  let problem = Lemma2.matching_problem t in
  let short = Lemma2.short_routing t in
  check Alcotest.bool "valid in spanner" true (Routing.is_valid t.Lemma2.spanner problem short);
  Array.iter
    (fun p -> check Alcotest.bool "length <= alpha" true (Routing.length p <= t.Lemma2.alpha))
    short;
  let n = Graph.n t.Lemma2.graph in
  (* all n paths cross a_1 (and b_1): congestion = size *)
  check Alcotest.int "congestion n" 15 (Routing.congestion ~n short)

let test_lemma2_dc_failure_is_forced () =
  (* Any length-<=3 routing of pair (a_i, b_i), i >= 1, must use edge
     (a_1, b_1): check via distance in spanner minus that edge. *)
  let t = Lemma2.make ~alpha:3 ~size:8 in
  let cut = Graph.copy t.Lemma2.spanner in
  ignore (Graph.remove_edge cut t.Lemma2.a.(0) t.Lemma2.b.(0));
  let cc = Graph.snapshot cut in
  for i = 1 to 7 do
    let d = Bfs.distance cc t.Lemma2.a.(i) t.Lemma2.b.(i) in
    check Alcotest.bool
      (Printf.sprintf "pair %d needs (a1,b1) for <=3 routing (d=%d)" i d)
      true (d > 3)
  done

let test_lemma2_congestion_2_substitute () =
  let t = Lemma2.make ~alpha:3 ~size:10 in
  let rng = Prng.create 7 in
  let g = t.Lemma2.graph in
  let n = Graph.n g in
  for _ = 1 to 5 do
    let problem = Problems.random_pairs rng g ~k:25 in
    let routing = Sp_routing.route_random (Graph.snapshot g) rng problem in
    let substitute = Lemma2.congestion_2_substitute t routing in
    check Alcotest.bool "valid in spanner" true
      (Routing.is_valid t.Lemma2.spanner problem substitute);
    let base = Routing.congestion ~n routing in
    let got = Routing.congestion ~n substitute in
    check Alcotest.bool
      (Printf.sprintf "congestion %d <= 2 * %d" got base)
      true
      (got <= 2 * base)
  done

let test_lemma2_alpha4 () =
  let t = Lemma2.make ~alpha:4 ~size:6 in
  check Alcotest.int "node count (2+alpha)n" ((2 + 4) * 6) (Graph.n t.Lemma2.graph);
  check Alcotest.bool "3-distance still" true (Stretch.exact t.Lemma2.graph t.Lemma2.spanner <= 3);
  let detours = Lemma2.detour_routing t in
  Array.iter
    (fun p -> check Alcotest.int "detour length 5" 5 (Routing.length p))
    detours

(* ---- Figure 1 VFT example ---- *)

let test_vft_structure () =
  let t = Vft_example.make 64 in
  check Alcotest.int "kept edges" (int_of_float (ceil (64.0 ** (1.0 /. 3.0))) + 1)
    (Array.length t.Vft_example.kept);
  check Alcotest.bool "spanner subgraph" true
    (Graph.is_subgraph t.Vft_example.spanner ~of_:t.Vft_example.graph);
  check Alcotest.bool "3-spanner" true
    (Stretch.is_three_spanner t.Vft_example.graph t.Vft_example.spanner)

let test_vft_congestion_blowup () =
  let t = Vft_example.make 128 in
  let rng = Prng.create 11 in
  let problem = Vft_example.matching_problem t in
  let routing = Vft_example.route t rng in
  check Alcotest.bool "valid" true (Routing.is_valid t.Vft_example.spanner problem routing);
  let n = Graph.n t.Vft_example.graph in
  let c = Routing.congestion ~n routing in
  (* ~ (n/2) / (f+1) = 64/6; require a blowup of at least n^{1/3} *)
  check Alcotest.bool (Printf.sprintf "congestion %d blows up" c) true (c >= 5);
  check Alcotest.int "optimum in G is 1" 1
    (Routing.congestion ~n (Array.map (fun { Routing.src; dst } -> [| src; dst |]) problem))

let test_vft_congestion_lower_bound () =
  (* the Figure 1 claim quantitatively: across sizes and seeds the kept-
     matching routing is measured at Omega(n^{2/3}) node congestion, while
     the same problem costs 1 in G.  The n^{2/3}/4 constant has slack: by
     pigeonhole some kept endpoint carries >= 1 + (n/2 - kept)/kept paths *)
  List.iter
    (fun n ->
      let t = Vft_example.make n in
      let nn = Graph.n t.Vft_example.graph in
      let bound = int_of_float (ceil (float_of_int n ** (2.0 /. 3.0) /. 4.0)) in
      List.iter
        (fun seed ->
          let routing = Vft_example.route t (Prng.create seed) in
          let c = Routing.congestion ~n:nn routing in
          check Alcotest.bool
            (Printf.sprintf "n=%d seed=%d: congestion %d >= n^(2/3)/4 = %d" n seed c bound)
            true (c >= bound))
        [ 1; 2; 3; 42 ];
      let problem = Vft_example.matching_problem t in
      check Alcotest.int
        (Printf.sprintf "n=%d: matching costs 1 in G" n)
        1
        (Routing.congestion ~n:nn
           (Array.map (fun { Routing.src; dst } -> [| src; dst |]) problem)))
    [ 64; 128; 256; 512 ]

(* ---- qcheck ---- *)

let prop_ray_line_spanner_stretch =
  QCheck.Test.make ~name:"ray-line extremal spanner always 3-stretch" ~count:30
    QCheck.(int_range 1 40)
    (fun k ->
      let t = Ray_line.make k in
      let h, _ = Ray_line.extremal_spanner t in
      Stretch.is_three_spanner t.Ray_line.graph h)

let prop_design_valid =
  QCheck.Test.make ~name:"design pairwise intersection <= 1" ~count:20
    QCheck.(pair small_int (int_range 2 5))
    (fun (seed, size) ->
      let rng = Prng.create seed in
      let d = Design.make rng ~n:200 ~subset_size:size ~count:20 in
      Design.max_pairwise_intersection d <= 1)

let prop_lemma2_short_routing_congestion_n =
  QCheck.Test.make ~name:"lemma2 short routing congestion = size" ~count:20
    QCheck.(int_range 2 30)
    (fun size ->
      let t = Lemma2.make ~alpha:3 ~size in
      Routing.congestion ~n:(Graph.n t.Lemma2.graph) (Lemma2.short_routing t) = size)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "lowerbound"
    [
      ( "ray-line",
        [
          Alcotest.test_case "structure" `Quick test_ray_line_structure;
          Alcotest.test_case "extremal spanner" `Quick test_ray_line_extremal_spanner;
          Alcotest.test_case "forced congestion" `Quick test_ray_line_forced_congestion;
          Alcotest.test_case "cannot remove more" `Quick test_ray_line_cannot_remove_more;
        ] );
      ( "design",
        [
          Alcotest.test_case "pairwise intersection" `Quick test_design_pairwise_intersection;
          Alcotest.test_case "balanced loads" `Quick test_design_loads_balanced;
          Alcotest.test_case "too dense fails" `Quick test_design_too_dense_fails;
          Alcotest.test_case "element range" `Quick test_design_element_range;
        ] );
      ( "theorem4",
        [
          Alcotest.test_case "structure" `Quick test_theorem4_structure;
          Alcotest.test_case "default k" `Quick test_theorem4_default_k;
          Alcotest.test_case "optimal spanner" `Quick test_theorem4_optimal_spanner;
          Alcotest.test_case "congestion blowup" `Quick test_theorem4_congestion_blowup;
          Alcotest.test_case "forced distance 3" `Quick test_theorem4_forced_is_only_short_option;
        ] );
      ( "lemma2",
        [
          Alcotest.test_case "structure" `Quick test_lemma2_structure;
          Alcotest.test_case "3-distance spanner" `Quick test_lemma2_three_distance_spanner;
          Alcotest.test_case "detour routing" `Quick test_lemma2_detour_routing;
          Alcotest.test_case "short routing congestion" `Quick test_lemma2_short_routing_congestion;
          Alcotest.test_case "DC failure forced" `Quick test_lemma2_dc_failure_is_forced;
          Alcotest.test_case "2-congestion substitute" `Quick test_lemma2_congestion_2_substitute;
          Alcotest.test_case "alpha = 4" `Quick test_lemma2_alpha4;
        ] );
      ( "vft",
        [
          Alcotest.test_case "structure" `Quick test_vft_structure;
          Alcotest.test_case "congestion blowup" `Quick test_vft_congestion_blowup;
          Alcotest.test_case "omega n^(2/3) across sizes" `Quick test_vft_congestion_lower_bound;
        ] );
      ( "properties",
        q [ prop_ray_line_spanner_stretch; prop_design_valid; prop_lemma2_short_routing_congestion_n ]
      );
    ]
