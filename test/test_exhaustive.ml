(* Exhaustive mechanical verification of the Lemma 18 / Lemma 1 claims on
   gadget-sized instances: instead of trusting one extremal construction,
   enumerate every subset of edges, keep the valid 3-spanners, and compute
   exact minimum congestions by branch-and-bound. *)

let check = Alcotest.check

(* ---- Brute primitives ---- *)

let test_bounded_paths_cycle () =
  let g = Generators.cycle 6 in
  (* between antipodes of C6: two simple paths of length 3 *)
  let paths = Brute.bounded_paths g ~src:0 ~dst:3 ~max_len:3 in
  check Alcotest.int "two geodesics" 2 (List.length paths);
  let all = Brute.bounded_paths g ~src:0 ~dst:3 ~max_len:5 in
  check Alcotest.int "still two (longer would repeat nodes)" 2 (List.length all);
  let short = Brute.bounded_paths g ~src:0 ~dst:3 ~max_len:2 in
  check Alcotest.int "none within 2" 0 (List.length short)

let test_bounded_paths_complete () =
  let g = Generators.complete 5 in
  (* length <= 2 paths from 0 to 1: direct + 3 via intermediates *)
  let paths = Brute.bounded_paths g ~src:0 ~dst:1 ~max_len:2 in
  check Alcotest.int "1 + 3 paths" 4 (List.length paths)

let test_min_congestion_simple () =
  let g = Generators.cycle 4 in
  let problem = [| { Routing.src = 0; dst = 2 }; { Routing.src = 1; dst = 3 } |] in
  (match Brute.min_congestion g problem ~max_len:2 with
  | None -> Alcotest.fail "expected routing"
  | Some (c, routing) ->
      check Alcotest.int "crossing pairs force 2" 2 c;
      check Alcotest.bool "valid" true (Routing.is_valid g problem routing));
  match Brute.min_congestion g [| { Routing.src = 0; dst = 2 } |] ~max_len:1 with
  | None -> ()
  | Some _ -> Alcotest.fail "no length-1 path exists"

let test_min_congestion_matches_copt_exact () =
  (* Against the independent shortest-path-only optimizer: when restricted to
     max_len = shortest distance, the two must agree. *)
  for seed = 1 to 6 do
    let rng = Prng.create seed in
    let g = Generators.erdos_renyi rng 10 0.4 in
    if Connectivity.is_connected g then begin
      let c = Graph.snapshot g in
      let problem = Problems.random_pairs rng g ~k:4 in
      let diam = Bfs.diameter_sampled c (Prng.create 1) ~samples:10 in
      let all_shortest_equal =
        Array.for_all
          (fun { Routing.src; dst } -> Bfs.distance c src dst >= 0)
          problem
      in
      if all_shortest_equal then begin
        match Congestion_opt.exact ~max_paths:500 c problem with
        | None -> ()
        | Some (e1, _) -> (
            (* brute over ALL bounded paths can only do better or equal when
               given more slack, and must match when max_len = per-pair
               shortest... use diam to allow everything: brute <= exact *)
            match Brute.min_congestion g problem ~max_len:diam with
            | None -> Alcotest.fail "brute found nothing"
            | Some (e2, _) ->
                check Alcotest.bool
                  (Printf.sprintf "brute %d <= shortest-only %d" e2 e1)
                  true (e2 <= e1))
      end
    end
  done

(* ---- exhaustive Lemma 18 ---- *)

let test_all_three_spanners_max_removal_is_k () =
  (* Lemma 18's structural claim: at most k edges can be removed. *)
  List.iter
    (fun k ->
      let t = Ray_line.make k in
      let spanners = Brute.all_three_spanners t.Ray_line.graph in
      let max_removed =
        List.fold_left (fun acc (_, removed) -> max acc (Array.length removed)) 0 spanners
      in
      check Alcotest.int (Printf.sprintf "max removable = k (k=%d)" k) k max_removed;
      (* and the extremal spanner is among them *)
      let _, extremal_removed = Ray_line.extremal_spanner t in
      check Alcotest.int "extremal removes k" k (Array.length extremal_removed))
    [ 1; 2; 3 ]

let test_lemma18_congestion_all_spanners () =
  (* For EVERY valid 3-spanner of the gadget, verified exactly:

     (i)   the adversarial routing of the removed *line* edges E1 has exact
           minimum congestion >= |E1| in H (all substitutes cross s);
     (ii)  the number of removed *ray* edges never exceeds ceil((k+1)/2);
     (iii) hence any maximal spanner (e = k removed edges, the Theorem 4
           regime) has |E1| >= k - ceil((k+1)/2) = Omega(k) forced
           congestion.

     Errata found by this enumeration (see DESIGN.md): the paper's
     per-instance bound beta >= x/4 fails at small k — e.g. for k = 2 the
     removals {line of f1, ray r2} give x = 3 with beta = 1/2, and the
     rays-only removal {r0, r2} is a maximal-size spanner with no forced
     congestion at all.  The Omega(n^{1/6}) of Theorem 4 survives with a
     degraded constant via (iii). *)
  List.iter
    (fun k ->
      let t = Ray_line.make k in
      let g = t.Ray_line.graph in
      let n = Graph.n g in
      let line_edge (u, v) = u <> t.Ray_line.s && v <> t.Ray_line.s in
      let max_rays = (k + 2) / 2 in
      let spanners = Brute.all_three_spanners g in
      List.iter
        (fun (h, removed) ->
          let e1 = Array.of_list (List.filter line_edge (Array.to_list removed)) in
          let rays_removed = Array.length removed - Array.length e1 in
          check Alcotest.bool
            (Printf.sprintf "(ii) rays removed %d <= %d (k=%d)" rays_removed max_rays k)
            true (rays_removed <= max_rays);
          if Array.length removed = k then
            check Alcotest.bool
              (Printf.sprintf "(iii) maximal spanner: |E1| = %d >= %d" (Array.length e1)
                 (k - max_rays))
              true
              (Array.length e1 >= k - max_rays);
          if Array.length e1 > 0 then begin
            let problem = Routing.problem_of_edges e1 in
            let in_g = Array.map (fun (u, v) -> [| u; v |]) e1 in
            check Alcotest.bool "C_G <= 2" true (Routing.congestion ~n in_g <= 2);
            match Brute.min_congestion h problem ~max_len:(min n ((2 * k) + 2)) with
            | None -> Alcotest.fail "3-spanner must route its removed edges"
            | Some (c_h, _) ->
                check Alcotest.bool
                  (Printf.sprintf "(i) C_H %d >= |E1| = %d (k=%d)" c_h (Array.length e1) k)
                  true
                  (c_h >= Array.length e1)
          end)
        spanners)
    [ 2; 3 ]

let test_lemma18_no_three_consecutive_rays () =
  (* Structural sub-claim used in the proof: no valid 3-spanner removes
     three consecutive rays. *)
  let k = 3 in
  let t = Ray_line.make k in
  let spanners = Brute.all_three_spanners t.Ray_line.graph in
  List.iter
    (fun (h, _) ->
      let consecutive_missing = ref 0 in
      let worst = ref 0 in
      for i = 0 to k do
        if not (Graph.mem_edge h t.Ray_line.s (Ray_line.a t ((2 * i) + 1))) then begin
          incr consecutive_missing;
          worst := max !worst !consecutive_missing
        end
        else consecutive_missing := 0
      done;
      check Alcotest.bool "at most 2 consecutive rays removed" true (!worst <= 2))
    spanners

(* ---- exhaustive Lemma 1 (DC -> both stretches) on a small instance ---- *)

let test_lemma1_small_instance () =
  (* Take Algorithm 1's spanner of a small dense graph; verify on ALL
     single-edge routing problems that the substitute stretches hold with
     beta = max congestion over matchings (Lemma 1's direction). *)
  let g = Generators.random_regular (Prng.create 3) 24 10 in
  let t = Regular_dc.build (Prng.create 4) g in
  let h = t.Regular_dc.spanner in
  check Alcotest.bool "3-spanner" true (Stretch.is_three_spanner g h);
  (* all-edges problem (Lemma 1's R): every edge individually routable <= 3 *)
  let dc = Regular_dc.to_dc t g in
  let rng = Prng.create 5 in
  Graph.iter_edges g (fun u v ->
      let paths = dc.Dc.route_matching rng [| (u, v) |] in
      check Alcotest.bool "edge substitute valid" true
        (Routing.is_valid h [| { Routing.src = u; dst = v } |] paths);
      check Alcotest.bool "edge substitute <= 3" true (Routing.length paths.(0) <= 3))

let () =
  Alcotest.run "exhaustive"
    [
      ( "brute",
        [
          Alcotest.test_case "bounded paths cycle" `Quick test_bounded_paths_cycle;
          Alcotest.test_case "bounded paths complete" `Quick test_bounded_paths_complete;
          Alcotest.test_case "min congestion basics" `Quick test_min_congestion_simple;
          Alcotest.test_case "consistent with shortest-path exact" `Quick
            test_min_congestion_matches_copt_exact;
        ] );
      ( "lemma18",
        [
          Alcotest.test_case "max removal = k" `Slow test_all_three_spanners_max_removal_is_k;
          Alcotest.test_case "congestion over ALL spanners" `Slow
            test_lemma18_congestion_all_spanners;
          Alcotest.test_case "no 3 consecutive rays" `Slow test_lemma18_no_three_consecutive_rays;
        ] );
      ("lemma1", [ Alcotest.test_case "small instance" `Quick test_lemma1_small_instance ]);
    ]
