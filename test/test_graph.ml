(* Tests for dcs_graph: graph ops, CSR, BFS (vs Floyd–Warshall), generators,
   connectivity, union-find, spectral estimates vs closed forms, bitmat. *)

let check = Alcotest.check

let random_graph seed n p =
  let rng = Prng.create seed in
  Generators.erdos_renyi rng n p

(* ---- Graph basics ---- *)

let test_graph_add_remove () =
  let g = Graph.create 5 in
  check Alcotest.bool "add" true (Graph.add_edge g 0 1);
  check Alcotest.bool "duplicate" false (Graph.add_edge g 1 0);
  check Alcotest.bool "self-loop" false (Graph.add_edge g 2 2);
  check Alcotest.int "m" 1 (Graph.m g);
  check Alcotest.bool "mem" true (Graph.mem_edge g 1 0);
  check Alcotest.bool "remove" true (Graph.remove_edge g 0 1);
  check Alcotest.bool "remove again" false (Graph.remove_edge g 0 1);
  check Alcotest.int "m after" 0 (Graph.m g)

let test_graph_out_of_range () =
  let g = Graph.create 3 in
  Alcotest.check_raises "node range" (Invalid_argument "Graph: node out of range") (fun () ->
      ignore (Graph.add_edge g 0 3))

let test_graph_degree_neighbors () =
  let g = Graph.of_edges 4 [ (0, 1); (0, 2); (0, 3); (1, 2) ] in
  check Alcotest.int "deg 0" 3 (Graph.degree g 0);
  check Alcotest.int "deg 3" 1 (Graph.degree g 3);
  check Alcotest.(list int) "neighbors sorted" [ 1; 2; 3 ] (List.sort compare (Graph.neighbors g 0));
  check Alcotest.int "max deg" 3 (Graph.max_degree g);
  check Alcotest.int "min deg" 1 (Graph.min_degree g);
  check Alcotest.bool "not regular" false (Graph.is_regular g)

let test_graph_edges_normalized () =
  let g = Graph.of_edges 4 [ (3, 1); (2, 0) ] in
  let es = List.sort compare (Graph.edges g) in
  check Alcotest.(list (pair int int)) "normalized" [ (0, 2); (1, 3) ] es

let test_graph_copy_independent () =
  let g = Graph.of_edges 3 [ (0, 1) ] in
  let h = Graph.copy g in
  ignore (Graph.add_edge h 1 2);
  check Alcotest.int "orig m" 1 (Graph.m g);
  check Alcotest.int "copy m" 2 (Graph.m h)

let test_is_subgraph () =
  let g = Graph.of_edges 4 [ (0, 1); (1, 2); (2, 3) ] in
  let h = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  check Alcotest.bool "subgraph" true (Graph.is_subgraph h ~of_:g);
  check Alcotest.bool "not subgraph" false (Graph.is_subgraph g ~of_:h);
  let wrong_size = Graph.of_edges 3 [ (0, 1) ] in
  check Alcotest.bool "size mismatch" false (Graph.is_subgraph wrong_size ~of_:g)

let test_common_neighbors () =
  let g = Graph.of_edges 5 [ (0, 2); (0, 3); (1, 2); (1, 3); (1, 4) ] in
  check Alcotest.(list int) "commons of 0,1" [ 2; 3 ]
    (List.sort compare (Graph.common_neighbors g 0 1));
  check Alcotest.(list int) "no commons" [] (Graph.common_neighbors g 0 4)

(* ---- CSR ---- *)

let test_csr_matches_graph () =
  let g = random_graph 3 40 0.2 in
  let c = Graph.snapshot g in
  check Alcotest.int "n" (Graph.n g) (Csr.n c);
  check Alcotest.int "m" (Graph.m g) (Csr.m c);
  for v = 0 to Graph.n g - 1 do
    check Alcotest.int "degree" (Graph.degree g v) (Csr.degree c v);
    let from_csr = ref [] in
    Csr.iter_neighbors c v (fun u -> from_csr := u :: !from_csr);
    check Alcotest.(list int) "neighbors"
      (List.sort compare (Graph.neighbors g v))
      (List.sort compare !from_csr)
  done;
  for u = 0 to Graph.n g - 1 do
    for v = 0 to Graph.n g - 1 do
      if u <> v then check Alcotest.bool "mem" (Graph.mem_edge g u v) (Csr.mem_edge c u v)
    done
  done

(* ---- BFS vs Floyd–Warshall ---- *)

let floyd_warshall g =
  let n = Graph.n g in
  let inf = 1_000_000 in
  let d = Array.make_matrix n n inf in
  for v = 0 to n - 1 do
    d.(v).(v) <- 0
  done;
  Graph.iter_edges g (fun u v ->
      d.(u).(v) <- 1;
      d.(v).(u) <- 1);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) + d.(k).(j) < d.(i).(j) then d.(i).(j) <- d.(i).(k) + d.(k).(j)
      done
    done
  done;
  Array.map (Array.map (fun x -> if x >= inf then -1 else x)) d

let test_bfs_vs_floyd_warshall () =
  List.iter
    (fun (seed, n, p) ->
      let g = random_graph seed n p in
      let c = Graph.snapshot g in
      let fw = floyd_warshall g in
      for s = 0 to n - 1 do
        let dist = Bfs.distances c s in
        check Alcotest.(array int) (Printf.sprintf "source %d" s) fw.(s) dist
      done)
    [ (1, 20, 0.15); (2, 30, 0.08); (3, 25, 0.3); (4, 15, 0.05) ]

let test_bfs_bounded () =
  let g = Generators.path 10 in
  let c = Graph.snapshot g in
  let dist = Bfs.distances_bounded c 0 ~bound:3 in
  check Alcotest.int "within bound" 3 dist.(3);
  check Alcotest.int "beyond bound" (-1) dist.(4);
  check Alcotest.int "distance_bounded hit" 2 (Bfs.distance_bounded c 0 2 ~bound:3);
  check Alcotest.int "distance_bounded miss" (-1) (Bfs.distance_bounded c 0 7 ~bound:3)

let test_bfs_distance_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  let c = Graph.snapshot g in
  check Alcotest.int "disconnected" (-1) (Bfs.distance c 0 3);
  check Alcotest.(option (array int)) "no path" None (Bfs.shortest_path c 0 3)

let test_shortest_path_valid () =
  let g = random_graph 7 30 0.15 in
  let c = Graph.snapshot g in
  for u = 0 to 29 do
    for v = 0 to 29 do
      let d = Bfs.distance c u v in
      match Bfs.shortest_path c u v with
      | None -> check Alcotest.int "consistent none" (-1) d
      | Some p ->
          check Alcotest.int "length = distance" d (Array.length p - 1);
          check Alcotest.int "starts" u p.(0);
          check Alcotest.int "ends" v p.(Array.length p - 1);
          for i = 0 to Array.length p - 2 do
            check Alcotest.bool "edge exists" true (Graph.mem_edge g p.(i) p.(i + 1))
          done
    done
  done

let test_random_shortest_path () =
  let g = Generators.torus 5 5 in
  let c = Graph.snapshot g in
  let rng = Prng.create 9 in
  for _ = 1 to 50 do
    let u = Prng.int rng 25 and v = Prng.int rng 25 in
    match Bfs.random_shortest_path c rng u v with
    | None -> Alcotest.fail "torus connected"
    | Some p ->
        check Alcotest.int "length optimal" (Bfs.distance c u v) (Array.length p - 1);
        check Alcotest.int "src" u p.(0);
        check Alcotest.int "dst" v p.(Array.length p - 1)
  done

let test_random_shortest_path_spreads () =
  (* On a 4-cycle the two shortest paths between antipodes should both
     appear across many draws. *)
  let g = Generators.cycle 4 in
  let c = Graph.snapshot g in
  let rng = Prng.create 13 in
  let via = Hashtbl.create 2 in
  for _ = 1 to 100 do
    match Bfs.random_shortest_path c rng 0 2 with
    | Some [| 0; mid; 2 |] -> Hashtbl.replace via mid ()
    | _ -> Alcotest.fail "expected length-2 path"
  done;
  check Alcotest.int "both midpoints used" 2 (Hashtbl.length via)

let test_eccentricity_diameter () =
  let g = Generators.path 10 in
  let c = Graph.snapshot g in
  check Alcotest.int "ecc of end" 9 (Bfs.eccentricity c 0);
  check Alcotest.int "ecc of middle" 5 (Bfs.eccentricity c 4);
  let rng = Prng.create 1 in
  check Alcotest.int "diameter exact" 9 (Bfs.diameter_sampled c rng ~samples:10)

(* ---- Connectivity / union-find ---- *)

let test_union_find () =
  let uf = Union_find.create 6 in
  check Alcotest.int "initial count" 6 (Union_find.count uf);
  check Alcotest.bool "union new" true (Union_find.union uf 0 1);
  check Alcotest.bool "union merged" false (Union_find.union uf 1 0);
  ignore (Union_find.union uf 2 3);
  ignore (Union_find.union uf 0 3);
  check Alcotest.bool "same" true (Union_find.same uf 1 2);
  check Alcotest.bool "not same" false (Union_find.same uf 1 4);
  check Alcotest.int "count" 3 (Union_find.count uf)

let test_components () =
  let g = Graph.of_edges 6 [ (0, 1); (1, 2); (3, 4) ] in
  check Alcotest.int "count" 3 (Connectivity.count g);
  check Alcotest.bool "not connected" false (Connectivity.is_connected g);
  let labels = Connectivity.components g in
  check Alcotest.int "0 and 2 together" labels.(0) labels.(2);
  check Alcotest.bool "different comps" true (labels.(0) <> labels.(3));
  check Alcotest.bool "singleton" true (labels.(5) <> labels.(0) && labels.(5) <> labels.(3))

let test_repair () =
  let g = Generators.cycle 8 in
  let h = Graph.create 8 in
  let added = Connectivity.repair h ~within:g in
  check Alcotest.int "spanning tree size" 7 added;
  check Alcotest.bool "connected" true (Connectivity.is_connected h);
  check Alcotest.bool "subgraph" true (Graph.is_subgraph h ~of_:g);
  (* repairing an already-connected graph is a no-op *)
  check Alcotest.int "no-op" 0 (Connectivity.repair h ~within:g)

let test_repair_cannot_exceed_g () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  let h = Graph.create 4 in
  ignore (Connectivity.repair h ~within:g);
  check Alcotest.int "as connected as g" (Connectivity.count g) (Connectivity.count h)

(* ---- Generators ---- *)

let test_complete () =
  let g = Generators.complete 6 in
  check Alcotest.int "m" 15 (Graph.m g);
  check Alcotest.bool "regular" true (Graph.is_regular g);
  check Alcotest.int "degree" 5 (Graph.max_degree g)

let test_complete_bipartite () =
  let g = Generators.complete_bipartite 3 4 in
  check Alcotest.int "m" 12 (Graph.m g);
  check Alcotest.int "left degree" 4 (Graph.degree g 0);
  check Alcotest.int "right degree" 3 (Graph.degree g 3);
  check Alcotest.bool "no intra-left" false (Graph.mem_edge g 0 1)

let test_cycle_path_star () =
  let c = Generators.cycle 7 in
  check Alcotest.int "cycle m" 7 (Graph.m c);
  check Alcotest.bool "cycle regular" true (Graph.is_regular c);
  let p = Generators.path 7 in
  check Alcotest.int "path m" 6 (Graph.m p);
  let s = Generators.star 7 in
  check Alcotest.int "star m" 6 (Graph.m s);
  check Alcotest.int "star center degree" 6 (Graph.degree s 0)

let test_grid_torus () =
  let g = Generators.grid 3 4 in
  check Alcotest.int "grid m" ((2 * 4) + (3 * 3)) (Graph.m g);
  let t = Generators.torus 4 5 in
  check Alcotest.int "torus m" (2 * 20) (Graph.m t);
  check Alcotest.bool "torus 4-regular" true (Graph.is_regular t && Graph.max_degree t = 4)

let test_hypercube () =
  let g = Generators.hypercube 4 in
  check Alcotest.int "n" 16 (Graph.n g);
  check Alcotest.int "m" 32 (Graph.m g);
  check Alcotest.bool "regular" true (Graph.is_regular g);
  (* distance = Hamming distance *)
  let c = Graph.snapshot g in
  let popcount x =
    let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
    go x 0
  in
  for u = 0 to 15 do
    for v = 0 to 15 do
      check Alcotest.int "hamming" (popcount (u lxor v)) (Bfs.distance c u v)
    done
  done

let test_circulant () =
  let g = Generators.circulant 10 [ 1; 2 ] in
  check Alcotest.int "m" 20 (Graph.m g);
  check Alcotest.bool "4-regular" true (Graph.is_regular g && Graph.max_degree g = 4)

let test_erdos_renyi_extremes () =
  let rng = Prng.create 1 in
  let empty = Generators.erdos_renyi rng 10 0.0 in
  check Alcotest.int "p=0" 0 (Graph.m empty);
  let full = Generators.erdos_renyi rng 10 1.0 in
  check Alcotest.int "p=1" 45 (Graph.m full)

let test_random_regular_degrees () =
  List.iter
    (fun (seed, n, d) ->
      let rng = Prng.create seed in
      let g = Generators.random_regular rng n d in
      check Alcotest.bool
        (Printf.sprintf "exactly %d-regular (n=%d)" d n)
        true
        (Graph.is_regular g && Graph.max_degree g = d);
      check Alcotest.int "edge count" (n * d / 2) (Graph.m g))
    [ (1, 20, 3); (2, 50, 8); (3, 100, 15); (4, 40, 20); (5, 30, 29); (6, 64, 4) ]

let test_random_regular_redraws () =
  (* the switch repair gets stuck on the first pairing of these inputs, all
     of which have simple d-regular realizations; the generator must redraw
     instead of giving up *)
  List.iter
    (fun (seed, n, d) ->
      let g = Generators.random_regular (Prng.create seed) n d in
      check Alcotest.bool
        (Printf.sprintf "seed %d: exactly %d-regular (n=%d)" seed d n)
        true
        (Graph.is_regular g && Graph.max_degree g = d))
    [
      (7, 5, 2); (9, 5, 2); (18, 5, 2); (23, 5, 2); (26, 6, 2); (26, 6, 3); (64, 5, 2);
      (78, 5, 2); (94, 5, 2);
    ]

let test_random_regular_rejects () =
  let rng = Prng.create 1 in
  Alcotest.check_raises "odd nd" (Invalid_argument "Generators.random_regular: n*d must be even")
    (fun () -> ignore (Generators.random_regular rng 5 3));
  Alcotest.check_raises "d >= n" (Invalid_argument "Generators.random_regular: need 0 <= d < n")
    (fun () -> ignore (Generators.random_regular rng 5 5))

let test_random_regular_connected_expander () =
  let rng = Prng.create 99 in
  let g = Generators.random_regular rng 200 8 in
  check Alcotest.bool "connected" true (Connectivity.is_connected g);
  let lam = Spectral.lambda (Graph.snapshot g) in
  (* Friedman: lambda ~ 2*sqrt(7) ~ 5.29; allow generous slack. *)
  check Alcotest.bool "near-Ramanujan" true (lam < 6.5)

let test_margulis () =
  let g = Generators.margulis 8 in
  check Alcotest.int "n" 64 (Graph.n g);
  check Alcotest.bool "degree <= 8" true (Graph.max_degree g <= 8);
  check Alcotest.bool "connected" true (Connectivity.is_connected g);
  let ratio = Spectral.expansion_ratio (Graph.snapshot g) in
  check Alcotest.bool "expander" true (ratio < 0.95)

let test_two_cliques_matching () =
  let g = Generators.two_cliques_matching 12 in
  let half = 6 in
  check Alcotest.int "m" ((2 * (half * (half - 1) / 2)) + half) (Graph.m g);
  check Alcotest.bool "matching edge" true (Graph.mem_edge g 0 half);
  check Alcotest.bool "no cross non-matching" false (Graph.mem_edge g 0 (half + 1));
  check Alcotest.bool "clique A" true (Graph.mem_edge g 0 1);
  check Alcotest.bool "clique B" true (Graph.mem_edge g half (half + 1))

let test_ring_of_cliques () =
  let g = Generators.ring_of_cliques 4 5 in
  check Alcotest.int "n" 20 (Graph.n g);
  check Alcotest.int "m" ((4 * 10) + 4) (Graph.m g);
  check Alcotest.bool "connected" true (Connectivity.is_connected g);
  (* Non-expander: ratio should be large. *)
  check Alcotest.bool "not an expander" true (Spectral.expansion_ratio (Graph.snapshot g) > 0.5)

(* ---- Spectral closed forms ---- *)

let test_spectral_complete () =
  (* K_n has eigenvalues n-1 and -1: lambda = 1. *)
  let g = Generators.complete 20 in
  let lam = Spectral.lambda (Graph.snapshot g) in
  check (Alcotest.float 0.05) "K_20 lambda" 1.0 lam

let test_spectral_cycle () =
  (* Even cycles are bipartite (lambda_n = -2); odd C_n has extreme
     eigenvalue magnitude 2 cos(pi / n). *)
  let even = Generators.cycle 24 in
  check (Alcotest.float 0.02) "C_24 lambda (bipartite)" 2.0
    (Spectral.lambda (Graph.snapshot even));
  let n = 25 in
  let odd = Generators.cycle n in
  let expected = 2.0 *. cos (Float.pi /. float_of_int n) in
  check (Alcotest.float 0.02) "C_25 lambda" expected
    (Spectral.lambda (Graph.snapshot odd))

let test_spectral_hypercube () =
  (* Q_d has eigenvalues d - 2k: lambda = d - 2 (and |-d| on the bipartite
     side, but |λ_n| = d equals degree... note Q_d is bipartite so
     max(|l2|,|ln|) = d). *)
  let d = 5 in
  let g = Generators.hypercube d in
  let lam = Spectral.lambda (Graph.snapshot g) in
  check (Alcotest.float 0.1) "Q_5 lambda (bipartite: = d)" (float_of_int d) lam

let test_spectral_complete_bipartite () =
  (* K_{a,b} has eigenvalues ±sqrt(ab); deflating all-ones is only exact for
     regular graphs, so use the balanced (regular) case. *)
  let g = Generators.complete_bipartite 8 8 in
  let lam = Spectral.lambda (Graph.snapshot g) in
  check (Alcotest.float 0.1) "K_{8,8} lambda" 8.0 lam

let test_expansion_ratio_star () =
  check (Alcotest.float 1e-6) "empty graph" 0.0 (Spectral.lambda (Graph.snapshot (Graph.create 1)))

(* ---- Bitmat ---- *)

let test_bitmat_matches_common_neighbors () =
  let g = random_graph 21 70 0.12 in
  let bm = Bitmat.of_graph g in
  for u = 0 to 69 do
    for v = 0 to 69 do
      if u <> v then begin
        let expected = List.length (Graph.common_neighbors g u v) in
        check Alcotest.int "common count" expected (Bitmat.common_count bm u v);
        check Alcotest.bool "at least" true (Bitmat.common_count_at_least bm u v expected);
        check Alcotest.bool "not more" false (Bitmat.common_count_at_least bm u v (expected + 1));
        check Alcotest.bool "mem" (Graph.mem_edge g u v) (Bitmat.mem bm u v)
      end
    done
  done

(* ---- version-cached snapshots ---- *)

let test_snapshot_cached () =
  let g = random_graph 7 30 0.3 in
  let a = Graph.snapshot g in
  let b = Graph.snapshot g in
  check Alcotest.bool "unmutated snapshots physically equal" true (a == b);
  (* any successful mutation must invalidate the cache *)
  let u, v =
    let e = ref (-1, -1) in
    Graph.iter_edges g (fun x y -> if !e = (-1, -1) then e := (x, y));
    !e
  in
  check Alcotest.bool "remove" true (Graph.remove_edge g u v);
  let c = Graph.snapshot g in
  check Alcotest.bool "mutation invalidates" true (not (c == a));
  check Alcotest.int "snapshot m tracks graph" (Graph.m g) (Csr.m c);
  (* a failed mutation (removing a non-edge) must NOT invalidate *)
  check Alcotest.bool "remove again" false (Graph.remove_edge g u v);
  check Alcotest.bool "no-op keeps cache" true (Graph.snapshot g == c);
  (* re-adding restores the edge set; the snapshot follows *)
  check Alcotest.bool "add back" true (Graph.add_edge g u v);
  check Alcotest.int "restored m" (Csr.m a) (Csr.m (Graph.snapshot g))

let test_snapshot_copy_independent () =
  let g = random_graph 8 20 0.3 in
  let snap_g = Graph.snapshot g in
  let g' = Graph.copy g in
  (* the copy may share the cached snapshot (same version, same edges)... *)
  check Alcotest.int "copy snapshot m" (Csr.m snap_g) (Csr.m (Graph.snapshot g'));
  (* ...but mutating the copy must not disturb the original's cache *)
  ignore (Graph.isolate g' 0);
  check Alcotest.bool "original cache untouched" true (Graph.snapshot g == snap_g);
  check Alcotest.int "copy snapshot follows its graph" (Graph.m g') (Csr.m (Graph.snapshot g'))

(* ---- qcheck properties ---- *)

let graph_param = QCheck.(triple small_int (int_range 2 40) (int_range 0 100))

let prop_csr_roundtrip =
  QCheck.Test.make ~name:"csr preserves edge count" ~count:100 graph_param (fun (seed, n, p100) ->
      let g = random_graph seed n (float_of_int p100 /. 100.0) in
      Csr.m (Graph.snapshot g) = Graph.m g)

let prop_bfs_triangle_inequality =
  QCheck.Test.make ~name:"bfs distances obey triangle inequality over edges" ~count:60 graph_param
    (fun (seed, n, p100) ->
      let g = random_graph seed n (float_of_int p100 /. 100.0) in
      let c = Graph.snapshot g in
      let dist = Bfs.distances c 0 in
      let ok = ref true in
      Graph.iter_edges g (fun u v ->
          if dist.(u) >= 0 && dist.(v) >= 0 && abs (dist.(u) - dist.(v)) > 1 then ok := false);
      !ok)

let prop_random_regular_is_regular =
  QCheck.Test.make ~name:"random_regular degrees exact" ~count:40
    QCheck.(pair small_int (pair (int_range 4 40) (int_range 1 6)))
    (fun (seed, (n, d)) ->
      let d = min d (n - 1) in
      let n = if n * d mod 2 = 1 then n + 1 else n in
      let rng = Prng.create seed in
      let g = Generators.random_regular rng n d in
      Graph.is_regular g && Graph.max_degree g = d)

let prop_snapshot_matches_fresh =
  (* satellite invariant for the version cache: after an arbitrary interleaving
     of mutations and snapshots, [Graph.snapshot] is bit-identical to a fresh
     [Graph.to_csr] build that bypasses the cache *)
  QCheck.Test.make ~name:"snapshot = fresh of_graph under interleaved mutation" ~count:100
    QCheck.(
      pair small_int (small_list (triple (int_range 0 3) (int_range 0 19) (int_range 0 19))))
    (fun (seed, ops) ->
      let g = random_graph seed 20 0.2 in
      ignore (Graph.snapshot g);
      List.iter
        (fun (op, u, v) ->
          (match op with
          | 0 -> ignore (Graph.add_edge g u v)
          | 1 -> ignore (Graph.remove_edge g u v)
          | 2 -> ignore (Graph.isolate g u)
          (* interleave reads so stale caches would be observed mid-sequence *)
          | _ -> ignore (Graph.snapshot g)))
        ops;
      let snap = Graph.snapshot g in
      let fresh = Graph.to_csr g in
      snap.Csr.n = fresh.Csr.n
      && snap.Csr.xadj = fresh.Csr.xadj
      && snap.Csr.adjncy = fresh.Csr.adjncy)

let prop_components_partition =
  QCheck.Test.make ~name:"component labels consistent with edges" ~count:80 graph_param
    (fun (seed, n, p100) ->
      let g = random_graph seed n (float_of_int p100 /. 100.0) in
      let labels = Connectivity.components g in
      let ok = ref true in
      Graph.iter_edges g (fun u v -> if labels.(u) <> labels.(v) then ok := false);
      !ok)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "graph"
    [
      ( "graph",
        [
          Alcotest.test_case "add/remove" `Quick test_graph_add_remove;
          Alcotest.test_case "out of range" `Quick test_graph_out_of_range;
          Alcotest.test_case "degree/neighbors" `Quick test_graph_degree_neighbors;
          Alcotest.test_case "edges normalized" `Quick test_graph_edges_normalized;
          Alcotest.test_case "copy independent" `Quick test_graph_copy_independent;
          Alcotest.test_case "is_subgraph" `Quick test_is_subgraph;
          Alcotest.test_case "common_neighbors" `Quick test_common_neighbors;
        ] );
      ( "csr",
        [
          Alcotest.test_case "matches graph" `Quick test_csr_matches_graph;
          Alcotest.test_case "snapshot cached" `Quick test_snapshot_cached;
          Alcotest.test_case "snapshot copy independent" `Quick test_snapshot_copy_independent;
        ] );
      ( "bfs",
        [
          Alcotest.test_case "vs floyd-warshall" `Quick test_bfs_vs_floyd_warshall;
          Alcotest.test_case "bounded" `Quick test_bfs_bounded;
          Alcotest.test_case "disconnected" `Quick test_bfs_distance_disconnected;
          Alcotest.test_case "shortest path valid" `Quick test_shortest_path_valid;
          Alcotest.test_case "random shortest path" `Quick test_random_shortest_path;
          Alcotest.test_case "random path spreads" `Quick test_random_shortest_path_spreads;
          Alcotest.test_case "eccentricity/diameter" `Quick test_eccentricity_diameter;
        ] );
      ( "connectivity",
        [
          Alcotest.test_case "union-find" `Quick test_union_find;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "repair" `Quick test_repair;
          Alcotest.test_case "repair bounded by g" `Quick test_repair_cannot_exceed_g;
        ] );
      ( "generators",
        [
          Alcotest.test_case "complete" `Quick test_complete;
          Alcotest.test_case "complete bipartite" `Quick test_complete_bipartite;
          Alcotest.test_case "cycle/path/star" `Quick test_cycle_path_star;
          Alcotest.test_case "grid/torus" `Quick test_grid_torus;
          Alcotest.test_case "hypercube" `Quick test_hypercube;
          Alcotest.test_case "circulant" `Quick test_circulant;
          Alcotest.test_case "erdos-renyi extremes" `Quick test_erdos_renyi_extremes;
          Alcotest.test_case "random regular degrees" `Quick test_random_regular_degrees;
          Alcotest.test_case "random regular redraws stuck pairings" `Quick
            test_random_regular_redraws;
          Alcotest.test_case "random regular rejects" `Quick test_random_regular_rejects;
          Alcotest.test_case "random regular expander" `Quick test_random_regular_connected_expander;
          Alcotest.test_case "margulis" `Quick test_margulis;
          Alcotest.test_case "two cliques + matching" `Quick test_two_cliques_matching;
          Alcotest.test_case "ring of cliques" `Quick test_ring_of_cliques;
        ] );
      ( "spectral",
        [
          Alcotest.test_case "complete graph" `Quick test_spectral_complete;
          Alcotest.test_case "cycle" `Quick test_spectral_cycle;
          Alcotest.test_case "hypercube" `Quick test_spectral_hypercube;
          Alcotest.test_case "complete bipartite" `Quick test_spectral_complete_bipartite;
          Alcotest.test_case "trivial graph" `Quick test_expansion_ratio_star;
        ] );
      ("bitmat", [ Alcotest.test_case "matches brute force" `Quick test_bitmat_matches_common_neighbors ]);
      ( "properties",
        q
          [
            prop_csr_roundtrip;
            prop_snapshot_matches_fresh;
            prop_bfs_triangle_inequality;
            prop_random_regular_is_regular;
            prop_components_partition;
          ] );
    ]
