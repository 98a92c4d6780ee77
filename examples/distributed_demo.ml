(* Corollary 3 demo: Algorithm 1 as an O(1)-round LOCAL protocol.

   Every node announces the edges it owns, floods for two rounds until it
   knows every edge incident to its 2-ball, and runs Algorithm 1's own pass
   (Regular_dc.of_sample) on that knowledge to decide its edges.  The
   result is *identical* to Algorithm 1 on the whole graph under the same
   per-edge coins: locality suffices.

   Run with:  dune exec examples/distributed_demo.exe *)

let () =
  let rng = Prng.create 19 in
  let n = 120 in
  let g = Generators.random_regular rng n 30 in
  Printf.printf "network: n=%d, Delta=%d, m=%d\n\n" n 30 (Graph.m g);

  let seed = 2024 in
  let result = Dist_spanner.run ~seed g in
  let a, b = Regular_dc.support_thresholds Regular_dc.Scaled g in
  let centralized, _, _ = Regular_dc.of_sample g ~sampled:result.Dist_spanner.sampled ~a ~b in

  Printf.printf "LOCAL protocol:\n";
  Printf.printf "  rounds:                 %d (constant: announce + 2 floods + decide + deliver)\n"
    result.Dist_spanner.rounds;
  Printf.printf "  messages delivered:     %d\n" result.Dist_spanner.messages;
  Printf.printf "  edge records sent:      %d (LOCAL allows unbounded messages;\n"
    result.Dist_spanner.entries;
  Printf.printf "                          the model charges rounds, not bits)\n";
  Printf.printf "  spanner edges:          %d of %d\n"
    (Graph.m result.Dist_spanner.spanner)
    (Graph.m g);

  let equal =
    Graph.m result.Dist_spanner.spanner = Graph.m centralized
    && Graph.is_subgraph result.Dist_spanner.spanner ~of_:centralized
  in
  Printf.printf "\ndistributed output = Algorithm 1 on the same G'? %b\n" equal;
  Printf.printf "distance stretch of the distributed spanner: %d\n"
    (Stretch.exact g result.Dist_spanner.spanner);

  (* Beyond the paper: Theorem 2's router is also 2-hop local, so a removed
     edge's replacement path can be computed distributedly in O(1) rounds. *)
  let pairs = Matching.random_maximal (Prng.create 5) g in
  let r2 = Dist_expander.run ~seed:7 g pairs in
  let _, ref_routing = Dist_expander.reference ~seed:7 g pairs in
  let same = Array.for_all2 (fun a b -> a = b) r2.Dist_expander.routing ref_routing in
  Printf.printf
    "\ndistributed Theorem 2 (spanner + routing of a %d-request matching):\n"
    (Array.length pairs);
  Printf.printf "  rounds: %d, replacement paths = centralized choice: %b\n"
    r2.Dist_expander.rounds same;

  (* Round count does not grow with n. *)
  Printf.printf "\nscaling check (rounds vs n):\n";
  List.iter
    (fun n ->
      let g = Generators.random_regular (Prng.create n) n (max 16 (n / 4)) in
      let r = Dist_spanner.run ~seed:n g in
      Printf.printf "  n=%-4d rounds=%d  messages=%d\n" n r.Dist_spanner.rounds
        r.Dist_spanner.messages)
    [ 40; 80; 160 ]
