(* Tests for Route_tables (next-hop compilation) and Dist_expander (the
   distributed Theorem 2 spanner + router). *)

let check = Alcotest.check

(* ---- Route_tables ---- *)

let test_tables_shortest () =
  List.iter
    (fun g ->
      let c = Graph.snapshot g in
      let t = Route_tables.compile c in
      let n = Graph.n g in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let d = Bfs.distance c src dst in
          match Route_tables.forward t ~src ~dst with
          | None -> check Alcotest.bool "unreachable iff disconnected" true (d < 0 && src <> dst)
          | Some p ->
              check Alcotest.int "forwarding follows a shortest path" (max d 0)
                (Routing.length p);
              check Alcotest.int "starts at src" src p.(0);
              check Alcotest.int "ends at dst" dst p.(Array.length p - 1)
        done
      done)
    [ Generators.torus 5 5; Generators.path 8; Generators.complete 7 ]

let test_tables_disconnected () =
  let g = Graph.of_edges 4 [ (0, 1); (2, 3) ] in
  let t = Route_tables.compile (Graph.snapshot g) in
  check Alcotest.(option int) "cross-component" None (Route_tables.next_hop t ~src:0 ~dst:3);
  check Alcotest.(option (array int)) "no path" None (Route_tables.forward t ~src:0 ~dst:3);
  (* entries: only within components: 2 ordered pairs per component *)
  check Alcotest.int "entries" 4 (Route_tables.entries t)

let test_tables_counts () =
  let g = Generators.torus 6 6 in
  let t = Route_tables.compile (Graph.snapshot g) in
  check Alcotest.int "entries = n(n-1)" (36 * 35) (Route_tables.entries t);
  check Alcotest.int "ports = 2m" (2 * Graph.m g) (Route_tables.ports t)

let test_tables_spanner_state_reduction () =
  (* the motivating measurement: spanner tables keep the same reachability
     with strictly less port state *)
  let g = Generators.random_regular (Prng.create 1) 100 30 in
  let t = Regular_dc.build (Prng.create 2) g in
  let full = Route_tables.compile (Graph.snapshot g) in
  let sparse = Route_tables.compile (Graph.snapshot t.Regular_dc.spanner) in
  check Alcotest.int "same reachability" (Route_tables.entries full) (Route_tables.entries sparse);
  check Alcotest.bool "less port state" true (Route_tables.ports sparse < Route_tables.ports full)

let test_tables_self () =
  let g = Generators.cycle 4 in
  let t = Route_tables.compile (Graph.snapshot g) in
  check Alcotest.(option int) "no self hop" None (Route_tables.next_hop t ~src:2 ~dst:2);
  check Alcotest.(option (array int)) "self path" (Some [| 2 |]) (Route_tables.forward t ~src:2 ~dst:2)

(* ---- Dist_expander ---- *)

let expander seed n d =
  let d = if n * d mod 2 = 1 then d + 1 else d in
  Generators.random_regular (Prng.create seed) n d

let routings_equal a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> x = y) a b

let test_dist_expander_matches_reference () =
  List.iter
    (fun (seed, n, d) ->
      let g = expander seed n d in
      let rng = Prng.create (seed + 40) in
      let pairs = Matching.random_maximal rng g in
      let r = Dist_expander.run ~seed g pairs in
      let ref_spanner, ref_routing = Dist_expander.reference ~seed g pairs in
      check Alcotest.int "spanner size equal" (Graph.m ref_spanner) (Graph.m r.Dist_expander.spanner);
      check Alcotest.bool "spanner edges equal" true
        (Graph.is_subgraph r.Dist_expander.spanner ~of_:ref_spanner);
      check Alcotest.bool "routings identical" true
        (routings_equal r.Dist_expander.routing ref_routing))
    [ (1, 80, 28); (2, 100, 30); (3, 120, 40) ]

let test_dist_expander_paths_valid () =
  let g = expander 5 100 34 in
  let rng = Prng.create 6 in
  let pairs = Matching.random_maximal rng g in
  let r = Dist_expander.run ~seed:5 g pairs in
  Array.iteri
    (fun i path ->
      if Array.length path > 0 then begin
        let u, v = pairs.(i) in
        check Alcotest.int "starts at src" u path.(0);
        check Alcotest.int "ends at dst" v path.(Array.length path - 1);
        check Alcotest.bool "length <= 3" true (Routing.length path <= 3);
        for j = 0 to Array.length path - 2 do
          check Alcotest.bool "edges in spanner" true
            (Graph.mem_edge r.Dist_expander.spanner path.(j) path.(j + 1))
        done
      end)
    r.Dist_expander.routing

let test_dist_expander_constant_rounds () =
  let g = expander 7 90 30 in
  let pairs = Matching.random_maximal (Prng.create 8) g in
  let r = Dist_expander.run ~seed:7 g pairs in
  check Alcotest.int "4 rounds" 4 r.Dist_expander.rounds;
  check Alcotest.bool "messages flowed" true (r.Dist_expander.messages > 0)

let test_dist_expander_rejects_non_edges () =
  let g = expander 9 60 20 in
  check Alcotest.bool "non-edge request rejected" true
    (try
       (* find a non-edge *)
       let rec non_edge u v =
         if u <> v && not (Graph.mem_edge g u v) then (u, v) else non_edge ((u + 1) mod 60) ((v + 7) mod 60)
       in
       ignore (Dist_expander.run ~seed:9 g [| non_edge 0 1 |]);
       false
     with Invalid_argument _ -> true)

(* ---- qcheck ---- *)

let prop_tables_match_bfs =
  QCheck.Test.make ~name:"route tables realize BFS distances" ~count:25
    QCheck.(pair small_int (int_range 4 30))
    (fun (seed, n) ->
      let g = Generators.erdos_renyi (Prng.create seed) n 0.3 in
      let c = Graph.snapshot g in
      let t = Route_tables.compile c in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          let d = Bfs.distance c src dst in
          match Route_tables.forward t ~src ~dst with
          | None -> if d >= 0 && src <> dst then ok := false
          | Some p -> if Routing.length p <> max d 0 then ok := false
        done
      done;
      !ok)

let prop_dist_expander_equality =
  QCheck.Test.make ~name:"distributed theorem 2 = centralized" ~count:8
    QCheck.(pair small_int (int_range 60 100))
    (fun (seed, n) ->
      let g = expander (seed + 11) n (n / 3) in
      let pairs = Matching.random_maximal (Prng.create (seed + 12)) g in
      let r = Dist_expander.run ~seed g pairs in
      let ref_spanner, ref_routing = Dist_expander.reference ~seed g pairs in
      Graph.m ref_spanner = Graph.m r.Dist_expander.spanner
      && routings_equal r.Dist_expander.routing ref_routing)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "tables-distexp"
    [
      ( "route-tables",
        [
          Alcotest.test_case "shortest forwarding" `Quick test_tables_shortest;
          Alcotest.test_case "disconnected" `Quick test_tables_disconnected;
          Alcotest.test_case "entry/port counts" `Quick test_tables_counts;
          Alcotest.test_case "spanner state reduction" `Quick test_tables_spanner_state_reduction;
          Alcotest.test_case "self routing" `Quick test_tables_self;
        ] );
      ( "dist-expander",
        [
          Alcotest.test_case "matches reference" `Quick test_dist_expander_matches_reference;
          Alcotest.test_case "paths valid" `Quick test_dist_expander_paths_valid;
          Alcotest.test_case "constant rounds" `Quick test_dist_expander_constant_rounds;
          Alcotest.test_case "rejects non-edges" `Quick test_dist_expander_rejects_non_edges;
        ] );
      ("properties", q [ prop_tables_match_bfs; prop_dist_expander_equality ]);
    ]
