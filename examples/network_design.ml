(* Theorem 3 scenario — the paper's introduction use-case: shrink routing
   state without sacrificing routing quality.

   A node's routing table stores one entry per incident spanner edge, so
   total routing state is proportional to the number of edges.  This example
   compares, on the same Delta-regular network:

     - keeping the full graph          (perfect routing, maximal state),
     - a classic greedy 3-spanner      (small state, congestion uncontrolled),
     - Algorithm 1's DC-spanner        (small state, congestion bounded).

   Run with:  dune exec examples/network_design.exe *)

let evaluate name g spanner_dc rng =
  let h = spanner_dc.Dc.spanner in
  let dist = Stretch.exact g h in
  let m_report = Dc.measure_matching spanner_dc rng ~trials:5 in
  (* compile actual forwarding tables: port state is what the spanner shrinks *)
  let tables = Route_tables.compile (Graph.snapshot h) in
  Printf.printf "%-22s ports=%-6d entries=%-7d dist=%-4s match-congestion: mean %.1f max %d\n"
    name (Route_tables.ports tables) (Route_tables.entries tables)
    (if dist = max_int then "disc" else string_of_int dist)
    m_report.Dc.mean_congestion m_report.Dc.max_congestion

let build name = Construction.build (Construction.find_exn name)

let () =
  let rng = Prng.create 11 in
  let n = 343 in
  let delta = 60 in
  let g = Generators.random_regular rng n delta in
  Printf.printf "network: n=%d, Delta=%d, full port state = %d\n\n" n delta (2 * Graph.m g);

  (* Full graph: the trivial (1,1)-DC-spanner. *)
  evaluate "full graph" g (Dc.of_sp_router ~name:"full" ~graph:g ~spanner:(Graph.copy g)) rng;

  (* Classic distance-only spanner. *)
  evaluate "greedy 3-spanner" g (build "greedy" rng g) rng;

  (* Baswana-Sen randomized 3-spanner. *)
  evaluate "baswana-sen 3-spanner" g (build "baswana-sen" rng g) rng;

  (* The paper's DC-spanner. *)
  evaluate "algorithm 1 (paper)" g (build "algorithm1" rng g) rng;

  Printf.printf
    "\nEvery option keeps full reachability (same next-hop entries); the sparse\n\
     ones cut the per-node port state.  All three sparse spanners give distance\n\
     stretch 3, but only the DC-spanner bounds the congestion stretch\n\
     (O(sqrt(Delta) log n), Theorem 3); the greedy spanner concentrates matching\n\
     traffic on its sparse skeleton.\n"
