(* Fault machinery tests: deterministic fault plans, the fault-aware packet
   simulation (including the exact rate-0 equivalence with Packet_sim), and
   self-healing repair. *)

let check = Alcotest.check

(* ---- Graph survivor helpers ---- *)

let test_graph_isolate () =
  let g = Generators.cycle 5 in
  check Alcotest.int "degree removed" 2 (Graph.isolate g 2);
  check Alcotest.int "edges left" 3 (Graph.m g);
  check Alcotest.(list int) "no neighbors" [] (Graph.neighbors g 2);
  check Alcotest.int "second isolate is free" 0 (Graph.isolate g 2)

let test_graph_survivor () =
  let g = Generators.complete 4 in
  let alive = [| true; false; true; true |] in
  let h = Graph.survivor g ~alive in
  check Alcotest.int "original untouched" 6 (Graph.m g);
  check Alcotest.int "triangle remains" 3 (Graph.m h);
  check Alcotest.(list int) "dead node isolated" [] (Graph.neighbors h 1);
  check Alcotest.bool "size mismatch rejected" true
    (try
       ignore (Graph.survivor g ~alive:[| true |]);
       false
     with Invalid_argument _ -> true)

(* ---- fault plans ---- *)

let test_plan_schedule_canonical () =
  let open Fault_plan in
  let p =
    schedule ~n:6
      [
        (3, [ Fail_edge (4, 2); Fail_node 1 ]);
        (1, [ Fail_node 5 ]);
        (3, [ Fail_edge (2, 4); Fail_node 1 ]);
      ]
  in
  check Alcotest.bool "canonical events" true
    (events p = [ (1, [ Fail_node 5 ]); (3, [ Fail_node 1; Fail_edge (2, 4) ]) ]);
  check Alcotest.int "node faults" 2 (node_faults p);
  check Alcotest.int "edge faults" 1 (edge_faults p);
  check Alcotest.int "last round" 3 (last_round p);
  check Alcotest.bool "marks failed nodes" true
    (failed_nodes p = [| false; true; false; false; false; true |])

let test_plan_schedule_rejects () =
  let expects_invalid name f =
    check Alcotest.bool name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  expects_invalid "round 0" (fun () -> Fault_plan.(schedule ~n:4 [ (0, [ Fail_node 1 ]) ]));
  expects_invalid "node range" (fun () -> Fault_plan.(schedule ~n:4 [ (1, [ Fail_node 4 ]) ]));
  expects_invalid "edge range" (fun () -> Fault_plan.(schedule ~n:4 [ (1, [ Fail_edge (0, 9) ]) ]));
  expects_invalid "self loop" (fun () -> Fault_plan.(schedule ~n:4 [ (1, [ Fail_edge (2, 2) ]) ]))

let test_plan_seed_reproducible () =
  let g = Generators.random_regular (Prng.create 3) 60 6 in
  List.iter
    (fun seed ->
      let a = Fault_plan.uniform_nodes (Prng.create seed) g ~p:0.3 in
      let b = Fault_plan.uniform_nodes (Prng.create seed) g ~p:0.3 in
      check Alcotest.bool "same seed, same node plan" true
        (Fault_plan.events a = Fault_plan.events b);
      let c = Fault_plan.uniform_edges ~round:4 (Prng.create seed) g ~p:0.1 in
      let d = Fault_plan.uniform_edges ~round:4 (Prng.create seed) g ~p:0.1 in
      check Alcotest.bool "same seed, same edge plan" true
        (Fault_plan.events c = Fault_plan.events d))
    [ 1; 7; 42 ]

let test_plan_rates () =
  let g = Generators.complete 30 in
  check Alcotest.bool "p=0 is empty" true
    (Fault_plan.is_empty (Fault_plan.uniform_nodes (Prng.create 1) g ~p:0.0));
  check Alcotest.int "p=1 kills everything" 30
    (Fault_plan.node_faults (Fault_plan.uniform_nodes (Prng.create 1) g ~p:1.0));
  check Alcotest.int "p=1 removes every edge" (Graph.m g)
    (Fault_plan.edge_faults (Fault_plan.uniform_edges (Prng.create 1) g ~p:1.0))

let test_plan_adversarial_targets_hotspots () =
  (* star-through-center routing: node 0 carries every path *)
  let routing = [| [| 1; 0; 2 |]; [| 3; 0; 4 |]; [| 5; 0; 6 |] |] in
  let p = Fault_plan.adversarial_load ~n:7 routing ~k:1 in
  check Alcotest.bool "kills the hub" true (Fault_plan.failed_nodes p).(0);
  check Alcotest.int "exactly one fault" 1 (Fault_plan.node_faults p);
  (* zero-load nodes are never targeted even when k is large *)
  let all = Fault_plan.adversarial_load ~n:20 routing ~k:20 in
  check Alcotest.int "only loaded nodes" 7 (Fault_plan.node_faults all)

let test_plan_merge_and_survivor () =
  let g = Generators.cycle 6 in
  let a = Fault_plan.(schedule ~n:6 [ (1, [ Fail_node 0 ]) ]) in
  let b = Fault_plan.(schedule ~n:6 [ (2, [ Fail_edge (2, 3) ]) ]) in
  let m = Fault_plan.merge a b in
  check Alcotest.int "merged rounds" 2 (List.length (Fault_plan.events m));
  let s = Fault_plan.survivor g m in
  check Alcotest.int "edges gone" 3 (Graph.m s);
  check Alcotest.(list int) "node 0 isolated" [] (Graph.neighbors s 0);
  check Alcotest.bool "edge removed" false (Graph.mem_edge s 2 3);
  check Alcotest.int "input untouched" 6 (Graph.m g)

let test_plan_merge_rejects_mismatched_n () =
  let a = Fault_plan.(schedule ~n:6 [ (1, [ Fail_node 0 ]) ]) in
  let b = Fault_plan.(schedule ~n:7 [ (1, [ Fail_node 0 ]) ]) in
  check Alcotest.bool "node-count mismatch rejected with prefixed message" true
    (try
       ignore (Fault_plan.merge a b);
       false
     with Invalid_argument msg ->
       String.length msg >= 16 && String.sub msg 0 16 = "Fault_plan.merge")

(* ---- fault-aware simulation: scenarios ---- *)

let cycle4 = Generators.cycle 4

let test_sim_reroute_around_dead_node () =
  (* 0-1-2 on a 4-cycle; node 1 dies at round 2, after the packet reached
     it: the packet is lost, retransmitted from 0 and rerouted via 3 *)
  let plan = Fault_plan.(schedule ~n:4 [ (2, [ Fail_node 1 ]) ]) in
  let s = Fault_sim.run ~n:4 ~network:cycle4 ~plan [| [| 0; 1; 2 |] |] in
  check Alcotest.int "delivered" 1 s.Fault_sim.delivered;
  check Alcotest.int "dropped" 0 s.Fault_sim.dropped;
  check Alcotest.int "retransmits" 1 s.Fault_sim.retransmits;
  check Alcotest.int "reroutes" 1 s.Fault_sim.reroutes;
  (* lost at round 2, backoff 4 -> reinjected round 6, two hops: round 7 *)
  check Alcotest.int "makespan" 7 s.Fault_sim.makespan;
  check Alcotest.int "one node fault" 1 s.Fault_sim.failed_nodes

let test_sim_edge_fault_burns_slot () =
  (* the edge (1,2) vanishes while the packet sits at 1: the transmission
     into the missing link is lost, then rerouted 0-3-2 *)
  let plan = Fault_plan.(schedule ~n:4 [ (2, [ Fail_edge (1, 2) ]) ]) in
  let s = Fault_sim.run ~n:4 ~network:cycle4 ~plan [| [| 0; 1; 2 |] |] in
  check Alcotest.int "delivered" 1 s.Fault_sim.delivered;
  check Alcotest.int "retransmits" 1 s.Fault_sim.retransmits;
  check Alcotest.int "reroutes" 1 s.Fault_sim.reroutes;
  check Alcotest.int "makespan" 7 s.Fault_sim.makespan;
  check Alcotest.int "one edge fault" 1 s.Fault_sim.failed_edges

let test_sim_drop_when_disconnected () =
  (* a bare path 0-1-2: killing node 1 leaves no survivor route at all *)
  let g = Graph.create 3 in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  let plan = Fault_plan.(schedule ~n:3 [ (2, [ Fail_node 1 ]) ]) in
  let s = Fault_sim.run ~n:3 ~network:g ~plan [| [| 0; 1; 2 |] |] in
  check Alcotest.int "delivered" 0 s.Fault_sim.delivered;
  check Alcotest.int "dropped" 1 s.Fault_sim.dropped;
  check Alcotest.int "no retransmit" 0 s.Fault_sim.retransmits;
  check Alcotest.int "no reroute" 0 s.Fault_sim.reroutes

let test_sim_drop_dead_destination () =
  let plan = Fault_plan.(schedule ~n:4 [ (1, [ Fail_node 1 ]) ]) in
  let s = Fault_sim.run ~n:4 ~network:cycle4 ~plan [| [| 0; 1 |] |] in
  check Alcotest.int "delivered" 0 s.Fault_sim.delivered;
  check Alcotest.int "dropped" 1 s.Fault_sim.dropped;
  check Alcotest.int "no retransmit" 0 s.Fault_sim.retransmits

let test_sim_attempt_budget () =
  (* with max_attempts = 0 the very first loss is a permanent drop, even
     though a survivor route exists *)
  let plan = Fault_plan.(schedule ~n:4 [ (2, [ Fail_node 1 ]) ]) in
  let s = Fault_sim.run ~max_attempts:0 ~n:4 ~network:cycle4 ~plan [| [| 0; 1; 2 |] |] in
  check Alcotest.int "dropped outright" 1 s.Fault_sim.dropped;
  check Alcotest.int "no retransmit" 0 s.Fault_sim.retransmits

let test_sim_late_faults_never_strike () =
  let plan = Fault_plan.(schedule ~n:4 [ (1000, [ Fail_node 1 ]) ]) in
  let s = Fault_sim.run ~n:4 ~network:cycle4 ~plan [| [| 0; 1; 2 |] |] in
  check Alcotest.int "delivered" 1 s.Fault_sim.delivered;
  check Alcotest.int "fault never applied" 0 s.Fault_sim.failed_nodes

let test_sim_deterministic () =
  let g = Generators.random_regular (Prng.create 5) 80 8 in
  let rng = Prng.create 6 in
  let routing = Sp_routing.route_random (Graph.snapshot g) rng (Problems.permutation rng g) in
  let plan = Fault_plan.uniform_nodes ~round:2 (Prng.create 7) g ~p:0.1 in
  let a = Fault_sim.run ~n:80 ~network:g ~plan routing in
  let b = Fault_sim.run ~n:80 ~network:g ~plan routing in
  check Alcotest.bool "same inputs, same stats" true (a = b)

(* ---- rate-0 equivalence with Packet_sim ---- *)

let rate0_cases =
  [
    ("torus permutation", Generators.torus 6 6, 0, 11);
    ("regular pairs", Generators.random_regular (Prng.create 21) 90 8, 25, 22);
    ("expander permutation", Generators.random_regular (Prng.create 23) 120 20, 0, 23);
  ]

let test_sim_rate0_equivalence () =
  List.iter
    (fun (name, g, k, seed) ->
      let rng = Prng.create seed in
      let problem =
        if k = 0 then Problems.permutation rng g else Problems.random_pairs rng g ~k
      in
      let routing = Sp_routing.route_random (Graph.snapshot g) rng problem in
      let n = Graph.n g in
      let faulty = Fault_sim.run ~n ~network:g ~plan:(Fault_plan.empty n) routing in
      let base = Packet_sim.run ~n routing in
      check Alcotest.bool (name ^ ": stats identical") true
        (Fault_sim.base_stats faulty = base);
      check Alcotest.int (name ^ ": all delivered") (Array.length routing)
        faulty.Fault_sim.delivered;
      check Alcotest.int (name ^ ": no drops") 0 faulty.Fault_sim.dropped;
      check Alcotest.int (name ^ ": no retransmits") 0 faulty.Fault_sim.retransmits)
    rate0_cases

(* the equivalence must also hold when the routing leaves the network graph
   (liveness checks never consult edge membership) *)
let test_sim_rate0_offnetwork_routing () =
  let g = Generators.complete 10 in
  let h = Classic.greedy g ~k:2 in
  let rng = Prng.create 31 in
  let routing = Sp_routing.route_random (Graph.snapshot g) rng (Problems.permutation rng g) in
  let faulty = Fault_sim.run ~n:10 ~network:h ~plan:(Fault_plan.empty 10) routing in
  check Alcotest.bool "stats identical" true
    (Fault_sim.base_stats faulty = Packet_sim.run ~n:10 routing)

(* ---- repair ---- *)

let repair_case seed p =
  let g = Generators.random_regular (Prng.create seed) 90 16 in
  let h = Classic.greedy g ~k:2 in
  let plan = Fault_plan.uniform_nodes (Prng.create (seed + 100)) g ~p in
  let g' = Fault_plan.survivor g plan in
  let h' = Fault_plan.survivor h plan in
  (g', h', Repair.run h' ~within:g')

let test_repair_invariants () =
  List.iter
    (fun (seed, p) ->
      let g', _, rep = repair_case seed p in
      check Alcotest.bool "subgraph of survivor" true
        (Graph.is_subgraph rep.Repair.spanner ~of_:g');
      check Alcotest.bool "connectivity restored" true rep.Repair.connected;
      check Alcotest.bool "certified" true rep.Repair.certified;
      check Alcotest.bool "stretch within alpha" true (rep.Repair.dist_stretch <= 3);
      check Alcotest.int "cost accounting" (List.length rep.Repair.added)
        (rep.Repair.connectivity_added + rep.Repair.stretch_added))
    [ (1, 0.1); (2, 0.2); (3, 0.3); (4, 0.05) ]

let test_repair_noop_on_intact_spanner () =
  let g = Generators.random_regular (Prng.create 9) 60 10 in
  let h = Classic.greedy g ~k:2 in
  let rep = Repair.run h ~within:g in
  check Alcotest.int "nothing to re-add" 0 (List.length rep.Repair.added);
  check Alcotest.bool "certified" true rep.Repair.certified

let test_repair_reconnects_bridge () =
  (* two triangles joined by a bridge; the damaged spanner lost the bridge *)
  let g = Graph.create 6 in
  List.iter
    (fun (u, v) -> ignore (Graph.add_edge g u v))
    [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3); (2, 3) ];
  let h = Graph.copy g in
  ignore (Graph.remove_edge h 2 3);
  let rep = Repair.run h ~within:g in
  check Alcotest.bool "bridge restored" true (Graph.mem_edge rep.Repair.spanner 2 3);
  check Alcotest.int "one connectivity edge" 1 rep.Repair.connectivity_added;
  check Alcotest.bool "certified" true rep.Repair.certified

let test_repair_rejects_non_subgraph () =
  let g = Generators.cycle 5 in
  let h = Generators.complete 5 in
  check Alcotest.bool "invalid argument" true
    (try
       ignore (Repair.run h ~within:g);
       false
     with Invalid_argument _ -> true)

let test_repair_deterministic () =
  let _, _, a = repair_case 5 0.2 in
  let _, _, b = repair_case 5 0.2 in
  check Alcotest.bool "same added edges" true (a.Repair.added = b.Repair.added)

let test_repair_certify_dc () =
  (* edge faults keep every node alive, so the survivor stays connected and
     Definition 4's whole-graph routing problems are routable *)
  let g = Generators.random_regular (Prng.create 6) 60 16 in
  let h = Classic.greedy g ~k:2 in
  let plan = Fault_plan.uniform_edges (Prng.create 106) g ~p:0.05 in
  let g' = Fault_plan.survivor g plan in
  check Alcotest.bool "survivor connected" true (Connectivity.is_connected g');
  let rep = Repair.run (Fault_plan.survivor h plan) ~within:g' in
  let e = Repair.certify_dc ~trials:4 ~alpha:3.0 rep ~within:g' (Prng.create 77) in
  check Alcotest.int "trials run" 4 e.Dc_check.trials;
  check Alcotest.bool "distance stretch within alpha" true (e.Dc_check.worst_dist <= 3.0);
  (* and the disconnected regime is rejected, not mis-certified *)
  let _, _, node_rep = repair_case 6 0.3 in
  check Alcotest.bool "disconnected survivor rejected" true
    (try
       ignore
         (Repair.certify_dc ~trials:1 ~alpha:3.0 node_rep
            ~within:(let g', _, _ = repair_case 6 0.3 in g')
            (Prng.create 1));
       false
     with Invalid_argument _ -> true)

(* ---- repair robustness edge cases ---- *)

let test_repair_multi_component_survivor () =
  (* two disjoint triangles: repair must report connected (component counts
     match [within]) and certified, without inventing cross-component edges *)
  let g = Graph.create 6 in
  List.iter
    (fun (u, v) -> ignore (Graph.add_edge g u v))
    [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5); (5, 3) ];
  let h = Graph.empty_like g in
  let rep = Repair.run h ~within:g in
  check Alcotest.int "components match within" (Connectivity.count g)
    (Connectivity.count rep.Repair.spanner);
  check Alcotest.bool "connected (per component)" true rep.Repair.connected;
  check Alcotest.bool "certified" true rep.Repair.certified;
  check Alcotest.bool "stretch within alpha" true (rep.Repair.dist_stretch <= 3)

let test_repair_empty_survivor () =
  (* every edge gone from both graphs: nothing to add, trivially certified *)
  let within = Graph.create 5 in
  let rep = Repair.run (Graph.create 5) ~within in
  check Alcotest.int "nothing added" 0 (List.length rep.Repair.added);
  check Alcotest.bool "connected" true rep.Repair.connected;
  check Alcotest.bool "certified" true rep.Repair.certified;
  check Alcotest.int "stretch 1" 1 rep.Repair.dist_stretch

(* ---- qcheck ---- *)

let prop_repair_idempotent =
  QCheck.Test.make ~name:"repairing an already-repaired spanner adds zero edges" ~count:20
    QCheck.(pair small_int (int_range 0 30))
    (fun (seed, pct) ->
      let g = Generators.random_regular (Prng.create 19) 60 10 in
      let h = Classic.greedy g ~k:2 in
      let plan =
        Fault_plan.uniform_nodes (Prng.create (400 + seed)) g ~p:(float_of_int pct /. 100.0)
      in
      let g' = Fault_plan.survivor g plan in
      let h' = Fault_plan.survivor h plan in
      let first = Repair.run h' ~within:g' in
      let again = Repair.run first.Repair.spanner ~within:g' in
      again.Repair.added = [] && again.Repair.certified = first.Repair.certified)

let prop_plan_reproducible =
  QCheck.Test.make ~name:"fault plans are pure functions of the seed" ~count:40
    QCheck.(pair small_int (int_range 0 100))
    (fun (seed, pct) ->
      let g = Generators.random_regular (Prng.create 11) 50 6 in
      let p = float_of_int pct /. 100.0 in
      let a = Fault_plan.uniform_nodes (Prng.create seed) g ~p in
      let b = Fault_plan.uniform_nodes (Prng.create seed) g ~p in
      Fault_plan.events a = Fault_plan.events b)

let prop_rate0_equivalence =
  QCheck.Test.make ~name:"empty plan reproduces Packet_sim exactly" ~count:25
    QCheck.(pair small_int (int_range 1 40))
    (fun (seed, k) ->
      let g = Generators.torus 5 5 in
      let rng = Prng.create seed in
      let routing =
        Sp_routing.route_random (Graph.snapshot g) rng (Problems.random_pairs rng g ~k)
      in
      let s = Fault_sim.run ~n:25 ~network:g ~plan:(Fault_plan.empty 25) routing in
      Fault_sim.base_stats s = Packet_sim.run ~n:25 routing)

let prop_repair_certifies =
  QCheck.Test.make ~name:"repair certifies inside every survivor" ~count:20
    QCheck.(pair small_int (int_range 0 30))
    (fun (seed, pct) ->
      let g = Generators.random_regular (Prng.create 13) 60 12 in
      let h = Classic.greedy g ~k:2 in
      let plan =
        Fault_plan.uniform_nodes (Prng.create seed) g ~p:(float_of_int pct /. 100.0)
      in
      let g' = Fault_plan.survivor g plan in
      let h' = Fault_plan.survivor h plan in
      let rep = Repair.run h' ~within:g' in
      Graph.is_subgraph rep.Repair.spanner ~of_:g' && rep.Repair.certified)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "fault"
    [
      ( "graph-survivor",
        [
          Alcotest.test_case "isolate" `Quick test_graph_isolate;
          Alcotest.test_case "survivor" `Quick test_graph_survivor;
        ] );
      ( "plans",
        [
          Alcotest.test_case "canonical schedule" `Quick test_plan_schedule_canonical;
          Alcotest.test_case "rejects invalid" `Quick test_plan_schedule_rejects;
          Alcotest.test_case "seed reproducible" `Quick test_plan_seed_reproducible;
          Alcotest.test_case "rate extremes" `Quick test_plan_rates;
          Alcotest.test_case "adversarial hotspots" `Quick test_plan_adversarial_targets_hotspots;
          Alcotest.test_case "merge and survivor" `Quick test_plan_merge_and_survivor;
          Alcotest.test_case "merge rejects mismatched n" `Quick
            test_plan_merge_rejects_mismatched_n;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "reroute around dead node" `Quick test_sim_reroute_around_dead_node;
          Alcotest.test_case "edge fault burns slot" `Quick test_sim_edge_fault_burns_slot;
          Alcotest.test_case "drop when disconnected" `Quick test_sim_drop_when_disconnected;
          Alcotest.test_case "drop dead destination" `Quick test_sim_drop_dead_destination;
          Alcotest.test_case "attempt budget" `Quick test_sim_attempt_budget;
          Alcotest.test_case "late faults never strike" `Quick test_sim_late_faults_never_strike;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
        ] );
      ( "rate-0",
        [
          Alcotest.test_case "equivalence" `Quick test_sim_rate0_equivalence;
          Alcotest.test_case "off-network routing" `Quick test_sim_rate0_offnetwork_routing;
        ] );
      ( "repair",
        [
          Alcotest.test_case "invariants" `Quick test_repair_invariants;
          Alcotest.test_case "noop on intact spanner" `Quick test_repair_noop_on_intact_spanner;
          Alcotest.test_case "reconnects bridge" `Quick test_repair_reconnects_bridge;
          Alcotest.test_case "rejects non-subgraph" `Quick test_repair_rejects_non_subgraph;
          Alcotest.test_case "deterministic" `Quick test_repair_deterministic;
          Alcotest.test_case "certify dc" `Quick test_repair_certify_dc;
          Alcotest.test_case "multi-component survivor" `Quick
            test_repair_multi_component_survivor;
          Alcotest.test_case "empty survivor" `Quick test_repair_empty_survivor;
        ] );
      ("properties", q
          [
            prop_plan_reproducible;
            prop_rate0_equivalence;
            prop_repair_certifies;
            prop_repair_idempotent;
          ]);
    ]
