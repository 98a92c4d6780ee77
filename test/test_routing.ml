(* Tests for dcs_routing: congestion semantics, matchings, Hopcroft–Karp vs
   brute force, Misra–Gries edge coloring, shortest-path routing, and the
   Algorithm 2 decomposition. *)

let check = Alcotest.check

let random_graph seed n p =
  let rng = Prng.create seed in
  Generators.erdos_renyi rng n p

(* ---- Routing basics ---- *)

let test_congestion_counts_paths_once () =
  (* A path that revisits a node still counts once at that node. *)
  let routing = [| [| 0; 1; 2; 1; 3 |]; [| 1; 4 |] |] in
  let loads = Routing.node_loads ~n:5 routing in
  check Alcotest.int "node 1 load" 2 loads.(1);
  check Alcotest.int "node 0 load" 1 loads.(0);
  check Alcotest.int "congestion" 2 (Routing.congestion ~n:5 routing)

let test_congestion_empty () =
  check Alcotest.int "empty" 0 (Routing.congestion ~n:3 [||])

let test_congestion_hand_example () =
  (* Three paths crossing at node 2. *)
  let routing = [| [| 0; 2; 1 |]; [| 3; 2; 4 |]; [| 5; 2; 6 |] |] in
  check Alcotest.int "star crossing" 3 (Routing.congestion ~n:7 routing)

let test_edge_congestion () =
  let routing = [| [| 0; 1; 2 |]; [| 3; 1; 2 |]; [| 0; 1 |] |] in
  check Alcotest.int "edge (1,2) shared" 2 (Routing.edge_congestion ~n:4 routing)

let test_path_length () =
  check Alcotest.int "singleton" 0 (Routing.length [| 3 |]);
  check Alcotest.int "len" 3 (Routing.length [| 0; 1; 2; 3 |])

let test_validity () =
  let g = Generators.cycle 5 in
  let problem = [| { Routing.src = 0; dst = 2 } |] in
  check Alcotest.bool "valid" true (Routing.is_valid g problem [| [| 0; 1; 2 |] |]);
  check Alcotest.bool "wrong endpoint" false (Routing.is_valid g problem [| [| 0; 1 |] |]);
  check Alcotest.bool "non-edge hop" false (Routing.is_valid g problem [| [| 0; 2 |] |]);
  check Alcotest.bool "size mismatch" false (Routing.is_valid g problem [||])

let test_max_stretch () =
  let original = [| [| 0; 1 |]; [| 2; 3 |] |] in
  let substitute = [| [| 0; 9; 1 |]; [| 2; 8; 7; 3 |] |] in
  check (Alcotest.float 1e-9) "stretch" 3.0 (Routing.max_stretch substitute ~against:original)

let test_problem_of_edges () =
  let p = Routing.problem_of_edges [| (1, 2); (3, 4) |] in
  check Alcotest.int "size" 2 (Array.length p);
  check Alcotest.int "src" 1 p.(0).Routing.src;
  check Alcotest.int "dst" 2 p.(0).Routing.dst

(* ---- Matchings ---- *)

let test_is_matching () =
  check Alcotest.bool "ok" true (Matching.is_matching [| (0, 1); (2, 3) |]);
  check Alcotest.bool "shared node" false (Matching.is_matching [| (0, 1); (1, 2) |]);
  check Alcotest.bool "self-loop" false (Matching.is_matching [| (0, 0) |]);
  check Alcotest.bool "empty" true (Matching.is_matching [||])

let test_greedy_maximal () =
  let g = Generators.path 6 in
  let m = Matching.greedy_maximal g in
  check Alcotest.bool "is matching" true (Matching.is_matching m);
  (* maximal: no remaining edge has both endpoints free *)
  let used = Hashtbl.create 12 in
  Array.iter
    (fun (u, v) ->
      Hashtbl.replace used u ();
      Hashtbl.replace used v ())
    m;
  Graph.iter_edges g (fun u v ->
      check Alcotest.bool "maximal" true (Hashtbl.mem used u || Hashtbl.mem used v))

let test_random_maximal_property () =
  let rng = Prng.create 4 in
  for seed = 1 to 10 do
    let g = random_graph seed 30 0.2 in
    let m = Matching.random_maximal rng g in
    check Alcotest.bool "is matching" true (Matching.is_matching m);
    Array.iter (fun (u, v) -> check Alcotest.bool "uses edges" true (Graph.mem_edge g u v)) m
  done

let test_random_node_matching () =
  let rng = Prng.create 5 in
  let m = Matching.random_node_matching rng 20 ~k:8 in
  check Alcotest.int "size" 8 (Array.length m);
  check Alcotest.bool "is matching" true (Matching.is_matching m);
  Alcotest.check_raises "too large" (Invalid_argument "Matching.random_node_matching: 2k > n")
    (fun () -> ignore (Matching.random_node_matching rng 5 ~k:3))

(* ---- Hopcroft–Karp vs brute force ---- *)

(* Exponential-time exact maximum matching on a bipartite adjacency. *)
let brute_force_max_matching ~l ~r ~adj =
  let best = ref 0 in
  let used_r = Array.make r false in
  let rec go i count =
    best := max !best count;
    if i < l then begin
      go (i + 1) count;
      for j = 0 to r - 1 do
        if (not used_r.(j)) && adj i j then begin
          used_r.(j) <- true;
          go (i + 1) (count + 1);
          used_r.(j) <- false
        end
      done
    end
  in
  go 0 0;
  !best

let test_hopcroft_karp_vs_brute () =
  let rng = Prng.create 17 in
  for _ = 1 to 40 do
    let l = 1 + Prng.int rng 7 and r = 1 + Prng.int rng 7 in
    let adj_m = Array.init l (fun _ -> Array.init r (fun _ -> Prng.bool rng 0.4)) in
    let left = Array.init l (fun i -> i) in
    let right = Array.init r (fun j -> 100 + j) in
    let matched =
      Bipartite_matching.maximum ~left ~right ~adj:(fun a b -> adj_m.(a).(b - 100))
    in
    (* validity: pairs are edges, no endpoint reused *)
    let seen = Hashtbl.create 8 in
    Array.iter
      (fun (a, b) ->
        check Alcotest.bool "edge" true adj_m.(a).(b - 100);
        check Alcotest.bool "left unused" false (Hashtbl.mem seen a);
        check Alcotest.bool "right unused" false (Hashtbl.mem seen b);
        Hashtbl.add seen a ();
        Hashtbl.add seen b ())
      matched;
    let expected = brute_force_max_matching ~l ~r ~adj:(fun i j -> adj_m.(i).(j)) in
    check Alcotest.int "maximum size" expected (Array.length matched)
  done

let test_hopcroft_karp_perfect () =
  let left = Array.init 10 (fun i -> i) in
  let right = Array.init 10 (fun i -> 10 + i) in
  let m = Bipartite_matching.maximum ~left ~right ~adj:(fun _ _ -> true) in
  check Alcotest.int "perfect on complete" 10 (Array.length m)

let test_hopcroft_karp_empty () =
  let m = Bipartite_matching.maximum ~left:[| 0 |] ~right:[| 1 |] ~adj:(fun _ _ -> false) in
  check Alcotest.int "no edges" 0 (Array.length m)

let test_neighborhood_matching_lemma4 () =
  (* On a strong expander the matching between two neighborhoods should be
     nearly perfect: |commons| + |matched| >= Delta (1 - lambda n / Delta^2). *)
  let rng = Prng.create 23 in
  let n = 120 and d = 40 in
  let g = Generators.random_regular rng n d in
  let lam = Spectral.lambda (Graph.snapshot g) in
  let bound =
    float_of_int d *. (1.0 -. (lam *. float_of_int n /. float_of_int (d * d)))
  in
  for _ = 1 to 10 do
    let u = Prng.int rng n in
    let v = Prng.int rng n in
    if u <> v then begin
      let commons, matched = Bipartite_matching.neighborhood_matching g u v in
      let size = List.length commons + Array.length matched in
      check Alcotest.bool
        (Printf.sprintf "lemma4 bound (got %d >= %.1f)" size bound)
        true
        (float_of_int size >= bound -. 1e-9);
      (* matched pairs must be disjoint G-edges between exclusive neighborhoods *)
      Array.iter
        (fun (x, y) ->
          check Alcotest.bool "matching edge in G" true (Graph.mem_edge g x y);
          check Alcotest.bool "x in N(u)" true (Graph.mem_edge g u x);
          check Alcotest.bool "y in N(v)" true (Graph.mem_edge g v y))
        matched
    end
  done

(* The hashed [neighborhood_matching] the arena kernel replaced: two hash
   sets split the sorted neighbourhoods, and [maximum] probes every
   left–right pair with [Graph.mem_edge].  Routes, and so every pinned
   congestion, depend on the exact matching, not just its size. *)
let ref_neighborhood_matching g u v =
  let sorted_neighbors x =
    let a = Array.of_list (Graph.neighbors g x) in
    Array.sort compare a;
    a
  in
  let nu = sorted_neighbors u and nv = sorted_neighbors v in
  let in_nv = Hashtbl.create (Array.length nv) in
  Array.iter (fun x -> Hashtbl.replace in_nv x ()) nv;
  let in_nu = Hashtbl.create (Array.length nu) in
  Array.iter (fun x -> Hashtbl.replace in_nu x ()) nu;
  let commons =
    List.filter (fun x -> Hashtbl.mem in_nv x && x <> v && x <> u) (Array.to_list nu)
  in
  let left =
    Array.of_list
      (List.filter
         (fun x -> (not (Hashtbl.mem in_nv x)) && x <> v && x <> u)
         (Array.to_list nu))
  in
  let right =
    Array.of_list
      (List.filter
         (fun x -> (not (Hashtbl.mem in_nu x)) && x <> u && x <> v)
         (Array.to_list nv))
  in
  (commons, Bipartite_matching.maximum ~left ~right ~adj:(Graph.mem_edge g))

(* Random regular graphs (committed by a snapshot or with the generator's
   delta pending), circulants and Chung–Lu graphs, optionally with 20
   random edge flips left uncommitted in the delta log. *)
let matching_input seed case ~commit ~delta =
  let rng = Prng.create seed in
  let g =
    match case with
    | 0 -> Generators.random_regular rng (60 + (seed mod 40)) 24
    | 1 -> Generators.circulant (90 + seed) (List.init 8 (fun i -> i + 1))
    | _ ->
        Generators.chung_lu rng
          (Generators.power_law_weights rng ~n:120 ~exponent:2.5 ~w_min:8.0)
  in
  if commit then ignore (Graph.snapshot g);
  let n = Graph.n g in
  if delta then
    for _ = 1 to 20 do
      let u = Prng.int rng n and v = Prng.int rng n in
      if u <> v then
        if Graph.mem_edge g u v then ignore (Graph.remove_edge g u v)
        else ignore (Graph.add_edge g u v)
    done;
  g

(* Adjacent pairs, non-adjacent pairs and u = v, in random orientation. *)
let matching_pairs rng g count =
  let n = Graph.n g in
  let edges = Graph.edge_array g in
  Array.init count (fun k ->
      let u, v =
        match k mod 3 with
        | 0 -> edges.(Prng.int rng (Array.length edges))
        | 1 ->
            let u = Prng.int rng n in
            (u, u)
        | _ ->
            let u = Prng.int rng n in
            if Graph.degree g u >= n - 1 then (u, u)
            else begin
              let v = ref (Prng.int rng n) in
              while !v = u || Graph.mem_edge g u !v do
                v := (!v + 1) mod n
              done;
              (u, !v)
            end
      in
      if Prng.bool rng 0.5 then (v, u) else (u, v))

let prop_neighborhood_matching_reference =
  QCheck.Test.make ~name:"neighborhood matching = hashed reference" ~count:48
    QCheck.(quad small_int (int_range 0 2) bool bool)
    (fun (seed, case, commit, delta) ->
      let g = matching_input seed case ~commit ~delta in
      Array.for_all
        (fun (u, v) ->
          Bipartite_matching.neighborhood_matching g u v = ref_neighborhood_matching g u v)
        (matching_pairs (Prng.create (seed + 7)) g 24))

let test_neighborhood_matching_domains () =
  (* each domain splits neighbourhoods in its own arena *)
  let g = matching_input 5 0 ~commit:true ~delta:true in
  let pairs = matching_pairs (Prng.create 11) g 90 in
  let run domains =
    Parallel.map_range ~domains (Array.length pairs) (fun i ->
        let u, v = pairs.(i) in
        Bipartite_matching.neighborhood_matching g u v)
  in
  let one = run 1 in
  check Alcotest.bool "2 domains = 1 domain" true (run 2 = one);
  check Alcotest.bool "1 domain = reference" true
    (Array.for_all2 (fun (u, v) got -> got = ref_neighborhood_matching g u v) pairs one)

(* ---- Edge coloring ---- *)

let test_misra_gries_small () =
  let g = Generators.cycle 5 in
  let c = Edge_coloring.misra_gries g in
  check Alcotest.bool "proper" true (Edge_coloring.is_proper g c);
  check Alcotest.bool "at most D+1 colors" true (c.Edge_coloring.num <= 3)

let test_misra_gries_random () =
  for seed = 1 to 25 do
    let g = random_graph seed (10 + (seed * 3)) 0.25 in
    let c = Edge_coloring.misra_gries g in
    check Alcotest.bool (Printf.sprintf "proper seed=%d" seed) true (Edge_coloring.is_proper g c);
    check Alcotest.bool
      (Printf.sprintf "Vizing bound seed=%d (%d colors, D=%d)" seed c.Edge_coloring.num
         (Graph.max_degree g))
      true
      (c.Edge_coloring.num <= Graph.max_degree g + 1)
  done

let test_misra_gries_structured () =
  List.iter
    (fun g ->
      let c = Edge_coloring.misra_gries g in
      check Alcotest.bool "proper" true (Edge_coloring.is_proper g c);
      check Alcotest.bool "Vizing bound" true (c.Edge_coloring.num <= Graph.max_degree g + 1))
    [
      Generators.complete 8;
      Generators.complete_bipartite 5 7;
      Generators.star 20;
      Generators.hypercube 4;
      Generators.torus 4 4;
      Graph.create 3;
    ]

let test_color_classes_are_matchings () =
  for seed = 1 to 10 do
    let g = random_graph (100 + seed) 25 0.3 in
    let c = Edge_coloring.misra_gries g in
    let classes = Edge_coloring.color_classes c in
    let total = Array.fold_left (fun acc cls -> acc + Array.length cls) 0 classes in
    check Alcotest.int "classes cover all edges" (Graph.m g) total;
    Array.iter
      (fun cls -> check Alcotest.bool "class is matching" true (Matching.is_matching cls))
      classes
  done

let test_greedy_coloring () =
  for seed = 1 to 10 do
    let g = random_graph (200 + seed) 20 0.3 in
    let c = Edge_coloring.greedy g in
    check Alcotest.bool "proper" true (Edge_coloring.is_proper g c);
    check Alcotest.bool "2D-1 bound" true (c.Edge_coloring.num <= max 1 ((2 * Graph.max_degree g) - 1))
  done

(* ---- Problems & shortest-path routing ---- *)

let test_problem_generators () =
  let rng = Prng.create 3 in
  let g = Generators.torus 5 5 in
  let em = Problems.edge_matching rng g in
  check Alcotest.bool "edge matching pairs adjacent" true
    (Array.for_all (fun { Routing.src; dst } -> Graph.mem_edge g src dst) em);
  let perm = Problems.permutation rng g in
  check Alcotest.bool "permutation: no fixed points" true
    (Array.for_all (fun { Routing.src; dst } -> src <> dst) perm);
  (* each node at most once as source, once as destination *)
  let srcs = Hashtbl.create 32 and dsts = Hashtbl.create 32 in
  Array.iter
    (fun { Routing.src; dst } ->
      check Alcotest.bool "src once" false (Hashtbl.mem srcs src);
      check Alcotest.bool "dst once" false (Hashtbl.mem dsts dst);
      Hashtbl.add srcs src ();
      Hashtbl.add dsts dst ())
    perm;
  let ae = Problems.all_edges g in
  check Alcotest.int "all edges size" (Graph.m g) (Array.length ae);
  let rp = Problems.random_pairs rng g ~k:40 in
  check Alcotest.int "random pairs size" 40 (Array.length rp);
  check Alcotest.bool "no self pairs" true
    (Array.for_all (fun { Routing.src; dst } -> src <> dst) rp)

let test_sp_routing () =
  let rng = Prng.create 6 in
  let g = Generators.torus 6 6 in
  let c = Graph.snapshot g in
  let problem = Problems.random_pairs rng g ~k:30 in
  let det = Sp_routing.route c problem in
  check Alcotest.bool "valid routing" true (Routing.is_valid g problem det);
  let ran = Sp_routing.route_random c rng problem in
  check Alcotest.bool "valid random routing" true (Routing.is_valid g problem ran);
  Array.iteri
    (fun i p ->
      check Alcotest.int "optimal length" (Routing.length det.(i)) (Routing.length p))
    ran;
  let cong = Sp_routing.congestion_of_problem c rng problem in
  check Alcotest.bool "congestion at least 1" true (cong >= 1)

let test_sp_routing_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  let c = Graph.snapshot g in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Sp_routing: request endpoints are disconnected") (fun () ->
      ignore (Sp_routing.route c [| { Routing.src = 0; dst = 3 } |]))

(* ---- Algorithm 2 decomposition ---- *)

let multiset_of_path_edges routing =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun p ->
      for i = 0 to Array.length p - 2 do
        let e = if p.(i) < p.(i + 1) then (p.(i), p.(i + 1)) else (p.(i + 1), p.(i)) in
        let c = try Hashtbl.find tbl e with Not_found -> 0 in
        Hashtbl.replace tbl e (c + 1)
      done)
    routing;
  tbl

let test_level_matchings_cover () =
  let rng = Prng.create 8 in
  let g = Generators.torus 6 6 in
  let c = Graph.snapshot g in
  let problem = Problems.random_pairs rng g ~k:40 in
  let routing = Sp_routing.route_random c rng problem in
  let matchings = Decompose.level_matchings ~n:36 routing in
  Array.iter
    (fun m -> check Alcotest.bool "each class is a matching" true (Matching.is_matching m))
    matchings;
  (* The multiset union of all matchings equals the multiset of path edges
     (up to per-path dedup of repeated edges, which simple paths don't have). *)
  let expected = multiset_of_path_edges routing in
  let got = Hashtbl.create 64 in
  Array.iter
    (fun m ->
      Array.iter
        (fun (u, v) ->
          let e = if u < v then (u, v) else (v, u) in
          let c = try Hashtbl.find got e with Not_found -> 0 in
          Hashtbl.replace got e (c + 1))
        m)
    matchings;
  Hashtbl.iter
    (fun e c ->
      let c' = try Hashtbl.find got e with Not_found -> 0 in
      check Alcotest.int "edge multiplicity preserved" c c')
    expected

let identity_router pairs = Array.map (fun (u, v) -> [| u; v |]) pairs

let test_decompose_identity_router () =
  (* Routing each matching by its own edges must reproduce the original
     routing exactly. *)
  let rng = Prng.create 9 in
  let g = Generators.torus 6 6 in
  let c = Graph.snapshot g in
  let problem = Problems.random_pairs rng g ~k:50 in
  let routing = Sp_routing.route_random c rng problem in
  let { Decompose.substitute; stats } = Decompose.run ~n:36 ~router:identity_router routing in
  Array.iteri
    (fun i p -> check Alcotest.(array int) "path unchanged" routing.(i) p)
    substitute;
  check Alcotest.bool "levels >= 1" true (stats.Decompose.levels >= 1)

let test_decompose_lemma21_bound () =
  (* sum (d_k + 1) <= 12 C(P) log2 n *)
  let rng = Prng.create 10 in
  List.iter
    (fun (n_side, k) ->
      let g = Generators.torus n_side n_side in
      let n = n_side * n_side in
      let c = Graph.snapshot g in
      let problem = Problems.random_pairs rng g ~k in
      let routing = Sp_routing.route_random c rng problem in
      let cong = Routing.congestion ~n routing in
      let { Decompose.stats; _ } = Decompose.run ~n ~router:identity_router routing in
      let bound = 12.0 *. float_of_int cong *. Stats.log2 (float_of_int n) in
      check Alcotest.bool
        (Printf.sprintf "lemma21: %d <= %.1f" stats.Decompose.degree_sum bound)
        true
        (float_of_int stats.Decompose.degree_sum <= bound))
    [ (5, 30); (6, 80); (7, 150) ]

let test_decompose_lemma23_matchings_bound () =
  let rng = Prng.create 11 in
  let g = Generators.torus 6 6 in
  let n = 36 in
  let c = Graph.snapshot g in
  let problem = Problems.random_pairs rng g ~k:100 in
  let routing = Sp_routing.route_random c rng problem in
  let { Decompose.stats; _ } = Decompose.run ~n ~router:identity_router routing in
  check Alcotest.bool "matchings O(n^3)" true (stats.Decompose.matchings <= n * n * (n + 1))

let test_decompose_with_detour_router () =
  (* Route matchings in a spanner with BFS paths; substitute must be valid in
     the spanner and solve the same problem. *)
  let rng = Prng.create 12 in
  let g = Generators.torus 6 6 in
  let n = 36 in
  let gc = Graph.snapshot g in
  (* spanner: remove a few edges whose endpoints stay close *)
  let h = Graph.copy g in
  ignore (Graph.remove_edge h 0 1);
  ignore (Graph.remove_edge h 7 8);
  let hc = Graph.snapshot h in
  let router pairs =
    Array.map
      (fun (u, v) ->
        match Bfs.random_shortest_path hc rng u v with
        | Some p -> p
        | None -> Alcotest.fail "spanner disconnected")
      pairs
  in
  let problem = Problems.random_pairs rng g ~k:60 in
  let routing = Sp_routing.route_random gc rng problem in
  let { Decompose.substitute; _ } = Decompose.run ~n ~router routing in
  check Alcotest.bool "substitute valid in spanner" true (Routing.is_valid h problem substitute)

let test_decompose_router_endpoint_check () =
  let routing = [| [| 0; 1 |] |] in
  let bad_router pairs = Array.map (fun (u, _) -> [| u; u |]) pairs in
  (try
     ignore (Decompose.run ~n:2 ~router:bad_router routing);
     Alcotest.fail "expected failure"
   with Invalid_argument msg ->
     check Alcotest.bool "endpoint mismatch detected" true
       (String.length msg > 0))

let test_decompose_empty_and_trivial () =
  let { Decompose.substitute; stats } = Decompose.run ~n:5 ~router:identity_router [||] in
  check Alcotest.int "empty" 0 (Array.length substitute);
  check Alcotest.int "no levels" 0 stats.Decompose.levels;
  (* single-node paths survive *)
  let { Decompose.substitute = s2; _ } =
    Decompose.run ~n:5 ~router:identity_router [| [| 3 |] |]
  in
  check Alcotest.(array int) "trivial path" [| 3 |] s2.(0)

(* ---- qcheck properties ---- *)

let prop_decompose_preserves_endpoints =
  QCheck.Test.make ~name:"decompose+identity preserves endpoints" ~count:50
    QCheck.(pair small_int (int_range 5 60))
    (fun (seed, k) ->
      let rng = Prng.create seed in
      let g = Generators.torus 5 5 in
      let c = Graph.snapshot g in
      let problem = Problems.random_pairs rng g ~k in
      let routing = Sp_routing.route_random c rng problem in
      let { Decompose.substitute; _ } = Decompose.run ~n:25 ~router:identity_router routing in
      Routing.is_valid g problem substitute)

let prop_coloring_proper =
  QCheck.Test.make ~name:"misra-gries proper on random graphs" ~count:60
    QCheck.(pair small_int (pair (int_range 2 30) (int_range 0 100)))
    (fun (seed, (n, p100)) ->
      let g = random_graph seed n (float_of_int p100 /. 100.0) in
      let c = Edge_coloring.misra_gries g in
      Edge_coloring.is_proper g c && c.Edge_coloring.num <= Graph.max_degree g + 1)

let prop_matching_router_congestion_1 =
  QCheck.Test.make ~name:"edge-matching routed by itself has congestion 1" ~count:50
    QCheck.(pair small_int (int_range 4 40))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = random_graph (seed + 1000) n 0.3 in
      if Graph.m g = 0 then true
      else begin
        let m = Matching.random_maximal rng g in
        let routing = identity_router m in
        Array.length m = 0 || Routing.congestion ~n routing = 1
      end)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "routing"
    [
      ( "routing",
        [
          Alcotest.test_case "congestion dedupe" `Quick test_congestion_counts_paths_once;
          Alcotest.test_case "congestion empty" `Quick test_congestion_empty;
          Alcotest.test_case "congestion crossing" `Quick test_congestion_hand_example;
          Alcotest.test_case "edge congestion" `Quick test_edge_congestion;
          Alcotest.test_case "path length" `Quick test_path_length;
          Alcotest.test_case "validity" `Quick test_validity;
          Alcotest.test_case "max stretch" `Quick test_max_stretch;
          Alcotest.test_case "problem of edges" `Quick test_problem_of_edges;
        ] );
      ( "matching",
        [
          Alcotest.test_case "is_matching" `Quick test_is_matching;
          Alcotest.test_case "greedy maximal" `Quick test_greedy_maximal;
          Alcotest.test_case "random maximal" `Quick test_random_maximal_property;
          Alcotest.test_case "random node matching" `Quick test_random_node_matching;
        ] );
      ( "hopcroft-karp",
        [
          Alcotest.test_case "vs brute force" `Quick test_hopcroft_karp_vs_brute;
          Alcotest.test_case "perfect on complete" `Quick test_hopcroft_karp_perfect;
          Alcotest.test_case "empty" `Quick test_hopcroft_karp_empty;
          Alcotest.test_case "lemma 4 neighborhood matching" `Quick test_neighborhood_matching_lemma4;
          Alcotest.test_case "neighborhood matching on 2 domains" `Quick
            test_neighborhood_matching_domains;
        ] );
      ( "edge-coloring",
        [
          Alcotest.test_case "cycle" `Quick test_misra_gries_small;
          Alcotest.test_case "random graphs" `Quick test_misra_gries_random;
          Alcotest.test_case "structured graphs" `Quick test_misra_gries_structured;
          Alcotest.test_case "classes are matchings" `Quick test_color_classes_are_matchings;
          Alcotest.test_case "greedy variant" `Quick test_greedy_coloring;
        ] );
      ( "sp-routing",
        [
          Alcotest.test_case "problem generators" `Quick test_problem_generators;
          Alcotest.test_case "routing validity" `Quick test_sp_routing;
          Alcotest.test_case "disconnected raises" `Quick test_sp_routing_disconnected;
        ] );
      ( "decompose",
        [
          Alcotest.test_case "matchings cover path edges" `Quick test_level_matchings_cover;
          Alcotest.test_case "identity router" `Quick test_decompose_identity_router;
          Alcotest.test_case "lemma 21 bound" `Quick test_decompose_lemma21_bound;
          Alcotest.test_case "lemma 23 bound" `Quick test_decompose_lemma23_matchings_bound;
          Alcotest.test_case "spanner router" `Quick test_decompose_with_detour_router;
          Alcotest.test_case "router endpoint check" `Quick test_decompose_router_endpoint_check;
          Alcotest.test_case "empty/trivial" `Quick test_decompose_empty_and_trivial;
        ] );
      ( "properties",
        q
          [
            prop_decompose_preserves_endpoints;
            prop_coloring_proper;
            prop_matching_router_congestion_1;
            prop_neighborhood_matching_reference;
          ] );
    ]
