(* Tests for the multicore helpers (Parallel), the parallel measurement
   entry points (Stretch.exact_parallel, Bfs.all_distances_parallel), and
   Valiant's randomized two-phase routing with its adversarial permutation
   generators. *)

let check = Alcotest.check

(* ---- Parallel ---- *)

let test_parallel_map_range_matches_init () =
  List.iter
    (fun domains ->
      List.iter
        (fun n ->
          let expected = Array.init n (fun i -> (i * i) + 1) in
          let got = Parallel.map_range ~domains n (fun i -> (i * i) + 1) in
          check Alcotest.(array int) (Printf.sprintf "n=%d domains=%d" n domains) expected got)
        [ 0; 1; 2; 5; 17; 100 ])
    [ 1; 2; 3; 4; 7 ]

let test_parallel_max_range () =
  List.iter
    (fun domains ->
      check Alcotest.int
        (Printf.sprintf "max domains=%d" domains)
        99
        (Parallel.max_range ~domains 100 (fun i -> if i = 63 then 99 else i mod 50));
      check Alcotest.int "empty" min_int (Parallel.max_range ~domains 0 (fun _ -> 42)))
    [ 1; 2; 4 ]

let test_parallel_default_domains () =
  check Alcotest.bool "at least 1" true (Parallel.default_domains () >= 1)

let test_parallel_side_effect_free_reads () =
  (* domains reading a shared CSR concurrently must agree with sequential *)
  let g = Generators.torus 8 8 in
  let c = Graph.snapshot g in
  let seq = Array.init 64 (fun s -> Array.fold_left ( + ) 0 (Bfs.distances c s)) in
  let par =
    Parallel.map_range ~domains:4 64 (fun s -> Array.fold_left ( + ) 0 (Bfs.distances c s))
  in
  check Alcotest.(array int) "concurrent reads consistent" seq par

(* ---- parallel measurement entry points ---- *)

let test_all_distances_parallel () =
  let g = Generators.erdos_renyi (Prng.create 5) 50 0.15 in
  let c = Graph.snapshot g in
  let seq = Bfs.all_distances c in
  let par = Bfs.all_distances_parallel ~domains:4 c in
  Array.iteri (fun i row -> check Alcotest.(array int) (Printf.sprintf "row %d" i) row par.(i)) seq

let test_exact_parallel_matches_sequential () =
  for seed = 1 to 6 do
    let g = Generators.erdos_renyi (Prng.create seed) 40 0.25 in
    let rng = Prng.create (seed + 10) in
    let h = Graph.empty_like g in
    Graph.iter_edges g (fun u v -> if Prng.bool rng 0.7 then ignore (Graph.add_edge h u v));
    ignore (Connectivity.repair h ~within:g);
    let seq = Stretch.exact g h in
    let par = Stretch.exact_parallel ~domains:4 g h in
    check Alcotest.int (Printf.sprintf "seed %d" seed) seq par
  done;
  (* identity spanner: no removed edges *)
  let g = Generators.torus 5 5 in
  check Alcotest.int "identity" 1 (Stretch.exact_parallel ~domains:4 g (Graph.copy g))

let test_exact_parallel_disconnected () =
  let g = Generators.cycle 6 in
  let h = Graph.copy g in
  ignore (Graph.remove_edge h 0 1);
  ignore (Graph.remove_edge h 3 4);
  check Alcotest.int "disconnected = max_int" max_int (Stretch.exact_parallel ~domains:3 g h)

(* ---- Valiant routing ---- *)

let test_valiant_validity () =
  let g = Generators.torus 6 6 in
  let c = Graph.snapshot g in
  let rng = Prng.create 7 in
  let problem = Problems.permutation rng g in
  let routing = Valiant.route c rng problem in
  check Alcotest.bool "valid" true (Routing.is_valid g problem routing);
  (* each path at most 2x diameter *)
  let diam = Bfs.diameter_sampled c rng ~samples:36 in
  Array.iter
    (fun p -> check Alcotest.bool "length <= 2 diam" true (Routing.length p <= 2 * diam))
    routing

let test_valiant_congestion_reasonable () =
  (* On an expander, Valiant congestion for a permutation stays polylog-ish. *)
  let g = Generators.random_regular (Prng.create 8) 128 8 in
  let c = Graph.snapshot g in
  let rng = Prng.create 9 in
  let problem = Problems.permutation rng g in
  let cong = Valiant.congestion c rng problem in
  check Alcotest.bool (Printf.sprintf "congestion %d bounded" cong) true (cong <= 60)

let test_torus_transpose () =
  let side = 5 in
  let p = Valiant.torus_transpose side in
  check Alcotest.int "size excludes diagonal" (side * side - side) (Array.length p);
  Array.iter
    (fun { Routing.src; dst } ->
      let r = src / side and c = src mod side in
      check Alcotest.int "transposed" ((c * side) + r) dst)
    p;
  (* it's a permutation restricted off the diagonal: sources distinct *)
  let seen = Hashtbl.create 32 in
  Array.iter
    (fun { Routing.src; _ } ->
      check Alcotest.bool "distinct" false (Hashtbl.mem seen src);
      Hashtbl.add seen src ())
    p

let test_bit_reversal () =
  let d = 4 in
  let p = Valiant.hypercube_bit_reversal d in
  Array.iter
    (fun { Routing.src; dst } ->
      (* reversing twice is the identity *)
      let reverse x =
        let r = ref 0 in
        for bit = 0 to d - 1 do
          if x land (1 lsl bit) <> 0 then r := !r lor (1 lsl (d - 1 - bit))
        done;
        !r
      in
      check Alcotest.int "involution" src (reverse dst);
      check Alcotest.bool "no fixed points included" true (src <> dst))
    p;
  (* d=4: fixed points of bit reversal are the 4 palindromic patterns *)
  check Alcotest.int "size" (16 - 4) (Array.length p)

let test_valiant_on_adversarial_patterns () =
  (* Both adversarial problems route validly through Valiant. *)
  let torus = Generators.torus 8 8 in
  let tc = Graph.snapshot torus in
  let rng = Prng.create 11 in
  let tp = Valiant.torus_transpose 8 in
  let tr = Valiant.route tc rng tp in
  check Alcotest.bool "torus transpose valid" true (Routing.is_valid torus tp tr);
  let cube = Generators.hypercube 6 in
  let cc = Graph.snapshot cube in
  let bp = Valiant.hypercube_bit_reversal 6 in
  let br = Valiant.route cc rng bp in
  check Alcotest.bool "bit reversal valid" true (Routing.is_valid cube bp br)

(* ---- Packet_sim ---- *)

let test_packet_single () =
  let routing = [| [| 0; 1; 2; 3 |] |] in
  let s = Packet_sim.run ~n:4 routing in
  check Alcotest.int "alone: makespan = path length" 3 s.Packet_sim.makespan;
  check Alcotest.int "dilation" 3 s.Packet_sim.dilation;
  check Alcotest.int "congestion" 1 s.Packet_sim.congestion;
  check (Alcotest.float 1e-9) "latency" 3.0 s.Packet_sim.avg_latency

let test_packet_star_contention () =
  (* two packets crossing the center of a star: one must wait *)
  let routing = [| [| 1; 0; 2 |]; [| 3; 0; 4 |] |] in
  let s = Packet_sim.run ~n:5 routing in
  check Alcotest.int "congestion 2" 2 s.Packet_sim.congestion;
  check Alcotest.int "makespan 3 (one waits a round)" 3 s.Packet_sim.makespan;
  check Alcotest.bool "queue formed" true (s.Packet_sim.max_queue >= 2)

let test_packet_bounds () =
  let g = Generators.torus 6 6 in
  let c = Graph.snapshot g in
  for seed = 1 to 6 do
    let rng = Prng.create seed in
    let problem = Problems.random_pairs rng g ~k:40 in
    let routing = Sp_routing.route_random c rng problem in
    let s = Packet_sim.run ~n:36 routing in
    check Alcotest.bool "makespan >= lower bound" true
      (s.Packet_sim.makespan >= Packet_sim.lower_bound s);
    check Alcotest.bool "makespan <= C*D + D" true
      (s.Packet_sim.makespan
      <= (s.Packet_sim.congestion * s.Packet_sim.dilation) + s.Packet_sim.dilation);
    check Alcotest.bool "avg <= makespan" true
      (s.Packet_sim.avg_latency <= float_of_int s.Packet_sim.makespan)
  done

let test_packet_empty_and_trivial () =
  let s = Packet_sim.run ~n:3 [||] in
  check Alcotest.int "empty makespan" 0 s.Packet_sim.makespan;
  let s1 = Packet_sim.run ~n:3 [| [| 2 |] |] in
  check Alcotest.int "self-delivery at 0" 0 s1.Packet_sim.makespan;
  check Alcotest.bool "empty path rejected" true
    (try
       ignore (Packet_sim.run ~n:1 [| [||] |]);
       false
     with Invalid_argument _ -> true)

let test_packet_lower_congestion_lower_latency () =
  (* the motivating monotonicity: an optimized (lower-congestion) routing of
     the same problem should not simulate slower *)
  let g = Generators.torus 7 7 in
  let c = Graph.snapshot g in
  let rng = Prng.create 31 in
  let problem = Problems.random_pairs rng g ~k:80 in
  let naive = Sp_routing.route c problem in
  let opt = Congestion_opt.route c (Prng.create 32) problem in
  let s_naive = Packet_sim.run ~n:49 naive in
  let s_opt = Packet_sim.run ~n:49 opt in
  check Alcotest.bool
    (Printf.sprintf "optimized makespan %d <= naive %d + slack" s_opt.Packet_sim.makespan
       s_naive.Packet_sim.makespan)
    true
    (s_opt.Packet_sim.makespan <= s_naive.Packet_sim.makespan + s_opt.Packet_sim.dilation)

(* ---- qcheck ---- *)

let prop_packet_bounds =
  QCheck.Test.make ~name:"packet sim between lower bound and C*D+D" ~count:40
    QCheck.(pair small_int (int_range 2 50))
    (fun (seed, k) ->
      let g = Generators.torus 5 5 in
      let c = Graph.snapshot g in
      let rng = Prng.create seed in
      let problem = Problems.random_pairs rng g ~k in
      let routing = Sp_routing.route_random c rng problem in
      let s = Packet_sim.run ~n:25 routing in
      s.Packet_sim.makespan >= Packet_sim.lower_bound s
      && s.Packet_sim.makespan
         <= (s.Packet_sim.congestion * s.Packet_sim.dilation) + s.Packet_sim.dilation)


let prop_parallel_map_eq_sequential =
  QCheck.Test.make ~name:"map_range = Array.init" ~count:100
    QCheck.(pair (int_range 0 200) (int_range 1 6))
    (fun (n, domains) ->
      Parallel.map_range ~domains n (fun i -> 3 * i) = Array.init n (fun i -> 3 * i))

let prop_valiant_endpoints =
  QCheck.Test.make ~name:"valiant paths have right endpoints" ~count:30
    QCheck.(pair small_int (int_range 2 30))
    (fun (seed, k) ->
      let g = Generators.torus 6 6 in
      let c = Graph.snapshot g in
      let rng = Prng.create seed in
      let problem = Problems.random_pairs rng g ~k in
      let routing = Valiant.route c rng problem in
      Routing.is_valid g problem routing)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel-routing"
    [
      ( "parallel",
        [
          Alcotest.test_case "map_range" `Quick test_parallel_map_range_matches_init;
          Alcotest.test_case "max_range" `Quick test_parallel_max_range;
          Alcotest.test_case "default domains" `Quick test_parallel_default_domains;
          Alcotest.test_case "concurrent reads" `Quick test_parallel_side_effect_free_reads;
        ] );
      ( "parallel-measurement",
        [
          Alcotest.test_case "all_distances" `Quick test_all_distances_parallel;
          Alcotest.test_case "exact stretch" `Quick test_exact_parallel_matches_sequential;
          Alcotest.test_case "disconnected" `Quick test_exact_parallel_disconnected;
        ] );
      ( "valiant",
        [
          Alcotest.test_case "validity" `Quick test_valiant_validity;
          Alcotest.test_case "congestion" `Quick test_valiant_congestion_reasonable;
          Alcotest.test_case "torus transpose" `Quick test_torus_transpose;
          Alcotest.test_case "bit reversal" `Quick test_bit_reversal;
          Alcotest.test_case "adversarial patterns" `Quick test_valiant_on_adversarial_patterns;
        ] );
      ( "packet-sim",
        [
          Alcotest.test_case "single packet" `Quick test_packet_single;
          Alcotest.test_case "star contention" `Quick test_packet_star_contention;
          Alcotest.test_case "C/D bounds" `Quick test_packet_bounds;
          Alcotest.test_case "empty/trivial" `Quick test_packet_empty_and_trivial;
          Alcotest.test_case "optimized routing not slower" `Quick
            test_packet_lower_congestion_lower_latency;
        ] );
      ( "properties",
        q [ prop_parallel_map_eq_sequential; prop_valiant_endpoints; prop_packet_bounds ] );
    ]
