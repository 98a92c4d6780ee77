(* Tests for dcs_distributed: the LOCAL simulator semantics and the
   Corollary 3 distributed Algorithm 1 (equality with Algorithm 1's own
   pass under shared randomness). *)

let check = Alcotest.check

(* ---- LOCAL simulator ---- *)

let test_local_no_messages_round0 () =
  (* Inboxes are empty in round 0. *)
  let g = Generators.cycle 5 in
  let saw_msg = ref false in
  let step ~round ~me:_ ~neighbors:_ state inbox =
    if round = 0 && inbox <> [] then saw_msg := true;
    (state, [])
  in
  let _, stats = Local_model.run g ~rounds:2 ~init:(fun _ -> ()) ~step in
  check Alcotest.bool "no round-0 inbox" false !saw_msg;
  check Alcotest.int "rounds" 2 stats.Local_model.rounds;
  check Alcotest.int "messages" 0 stats.Local_model.messages

let test_local_delivery () =
  (* Every node sends its id to all neighbors; next round each node must
     receive exactly its neighbor set. *)
  let g = Generators.torus 4 4 in
  let received = Array.make 16 [] in
  let step ~round ~me ~neighbors state inbox =
    if round = 0 then (state, Array.to_list (Array.map (fun v -> (v, me)) neighbors))
    else begin
      if round = 1 then received.(me) <- List.map fst inbox;
      (state, [])
    end
  in
  let _, stats = Local_model.run g ~rounds:2 ~init:(fun _ -> ()) ~step in
  check Alcotest.int "messages = 2m" (2 * Graph.m g) stats.Local_model.messages;
  for v = 0 to 15 do
    check Alcotest.(list int) "inbox = neighbors"
      (List.sort compare (Graph.neighbors g v))
      (List.sort compare received.(v))
  done

let test_local_sender_matches_payload () =
  let g = Generators.path 3 in
  let ok = ref true in
  let step ~round ~me ~neighbors state inbox =
    List.iter (fun (src, payload) -> if src <> payload then ok := false) inbox;
    if round = 0 then (state, Array.to_list (Array.map (fun v -> (v, me)) neighbors))
    else (state, [])
  in
  ignore (Local_model.run g ~rounds:3 ~init:(fun _ -> ()) ~step);
  check Alcotest.bool "senders faithful" true !ok

let test_local_rejects_non_neighbor () =
  let g = Generators.path 4 in
  let step ~round:_ ~me ~neighbors:_ state _ =
    if me = 0 then (state, [ (3, ()) ]) else (state, [])
  in
  Alcotest.check_raises "non-neighbor send"
    (Invalid_argument "Local_model.run: message to a non-neighbor") (fun () ->
      ignore (Local_model.run g ~rounds:1 ~init:(fun _ -> ()) ~step))

let test_local_bfs_protocol () =
  (* A tiny distributed BFS: node 0 floods a counter; states converge to
     BFS distances, validating synchronous-round semantics. *)
  let g = Generators.torus 4 4 in
  let c = Graph.snapshot g in
  let expected = Bfs.distances c 0 in
  let diameter = 4 in
  let step ~round ~me ~neighbors state inbox =
    let best =
      List.fold_left (fun acc (_, d) -> min acc (d + 1)) state inbox
    in
    let state' = if me = 0 then 0 else best in
    if round <= diameter then (state', Array.to_list (Array.map (fun v -> (v, state')) neighbors))
    else (state', [])
  in
  let states, _ =
    Local_model.run g ~rounds:(diameter + 2) ~init:(fun v -> if v = 0 then 0 else max_int / 2) ~step
  in
  Array.iteri
    (fun v d -> check Alcotest.int (Printf.sprintf "bfs dist %d" v) expected.(v) d)
    states

(* ---- Corollary 3 ---- *)

(* The reference Corollary 3 is held to: Algorithm 1's own pass
   ([Regular_dc.of_sample]) on the whole graph, fed the protocol's G'. *)
let algorithm1 ?(thresholds = Regular_dc.Scaled) g (r : Dist_spanner.result) =
  let a, b = Regular_dc.support_thresholds thresholds g in
  let h, _, _ = Regular_dc.of_sample g ~sampled:r.Dist_spanner.sampled ~a ~b in
  h

let graphs_for_cor3 =
  [
    ("regular-60-20", fun () -> Generators.random_regular (Prng.create 1) 60 20);
    ("regular-80-24", fun () -> Generators.random_regular (Prng.create 2) 80 24);
    ("torus-8x8", fun () -> Generators.torus 8 8);
    ("complete-30", fun () -> Generators.complete 30);
    ("margulis-7", fun () -> Generators.margulis 7);
  ]

let graphs_equal a b =
  Graph.n a = Graph.n b && Graph.m a = Graph.m b && Graph.is_subgraph a ~of_:b

let test_cor3_matches_algorithm1 () =
  List.iter
    (fun (name, mk) ->
      let g = mk () in
      List.iter
        (fun seed ->
          let dist = Dist_spanner.run ~seed g in
          check Alcotest.bool
            (Printf.sprintf "%s seed=%d distributed = algorithm 1" name seed)
            true
            (graphs_equal dist.Dist_spanner.spanner (algorithm1 g dist)))
        [ 1; 7; 42 ])
    graphs_for_cor3

(* Inputs where line 9 reinserts, so the repair test reads reinserted
   edges, pinned by size; the last one is decided wrongly by a protocol
   that floods one round fewer (154 edges). *)
let test_cor3_line9_inputs () =
  let cases =
    [
      ( "regular-120-40",
        Generators.random_regular (Prng.create 1) 120 40,
        Regular_dc.Explicit (12, 22),
        [ (1, 568); (7, 591); (42, 567) ] );
      ( "regular-100-28",
        Generators.random_regular (Prng.create 3) 100 28,
        Regular_dc.Explicit (8, 10),
        [ (1, 423); (7, 416); (42, 424) ] );
      ( "regular-48-10",
        Generators.random_regular (Prng.create 1016) 48 10,
        Regular_dc.Explicit (3, 1),
        [ (558, 157) ] );
    ]
  in
  List.iter
    (fun (name, g, thresholds, seeds) ->
      List.iter
        (fun (seed, size) ->
          let dist = Dist_spanner.run ~thresholds ~seed g in
          let label = Printf.sprintf "%s seed=%d" name seed in
          check Alcotest.int (label ^ " size") size (Graph.m dist.Dist_spanner.spanner);
          check Alcotest.bool (label ^ " distributed = algorithm 1") true
            (graphs_equal dist.Dist_spanner.spanner (algorithm1 ~thresholds g dist)))
        seeds)
    cases

let test_cor3_constant_rounds () =
  let g = Generators.random_regular (Prng.create 3) 100 28 in
  let r = Dist_spanner.run ~seed:5 g in
  check Alcotest.int "constant rounds" 5 r.Dist_spanner.rounds;
  check Alcotest.bool "messages sent" true (r.Dist_spanner.messages > 0);
  check Alcotest.bool "entries counted" true (r.Dist_spanner.entries > 0)

let test_cor3_spanner_properties () =
  let g = Generators.random_regular (Prng.create 4) 90 30 in
  let r = Dist_spanner.run ~seed:11 g in
  check Alcotest.bool "subgraph" true (Graph.is_subgraph r.Dist_spanner.spanner ~of_:g);
  check Alcotest.bool "3-distance spanner" true (Stretch.is_three_spanner g r.Dist_spanner.spanner)

let test_cor3_custom_thresholds () =
  let g = Generators.random_regular (Prng.create 5) 60 20 in
  let thresholds = Regular_dc.Explicit (2, 4) in
  let r = Dist_spanner.run ~thresholds ~seed:9 g in
  check Alcotest.bool "custom thresholds agree" true
    (graphs_equal r.Dist_spanner.spanner (algorithm1 ~thresholds g r))

let test_cor3_deterministic_in_seed () =
  let g = Generators.random_regular (Prng.create 6) 60 20 in
  let a = Dist_spanner.run ~seed:21 g in
  let b = Dist_spanner.run ~seed:21 g in
  check Alcotest.bool "same seed, same spanner" true
    (graphs_equal a.Dist_spanner.spanner b.Dist_spanner.spanner);
  let c = Dist_spanner.run ~seed:22 g in
  check Alcotest.bool "different seed, (almost surely) different spanner" true
    (not (graphs_equal a.Dist_spanner.spanner c.Dist_spanner.spanner))

let test_cor3_rejects_weights () =
  let g = Generators.weighted_torus (Prng.create 7) 6 6 ~w_max:3 in
  Alcotest.check_raises "weighted input"
    (Invalid_argument "Dist_spanner.run: the graph must be unweighted") (fun () ->
      ignore (Dist_spanner.run ~seed:1 g))

(* Every node runs Algorithm 1's pass on its ball and discards the
   decisions it does not own, so the protocol must not add to the counters
   of [Regular_dc.build]'s decisions. *)
let test_cor3_leaves_build_counters () =
  let g = Generators.random_regular (Prng.create 1) 120 40 in
  let reinserted = Metrics.counter "spanner.reinserted"
  and repaired = Metrics.counter "spanner.repaired" in
  Obs.set_metrics true;
  Fun.protect
    ~finally:(fun () -> Obs.set_metrics false)
    (fun () ->
      let before = (Metrics.counter_value reinserted, Metrics.counter_value repaired) in
      let r = Dist_spanner.run ~thresholds:(Regular_dc.Explicit (12, 22)) ~seed:1 g in
      check Alcotest.int "spanner size" 568 (Graph.m r.Dist_spanner.spanner);
      check
        Alcotest.(pair int int)
        "spanner.reinserted, spanner.repaired" before
        (Metrics.counter_value reinserted, Metrics.counter_value repaired);
      (* the counters are live: Algorithm 1 itself moves them *)
      let t = Regular_dc.build ~thresholds:(Regular_dc.Explicit (12, 22)) (Prng.create 1) g in
      check
        Alcotest.(pair int int)
        "build counts its decisions once"
        (fst before + t.Regular_dc.reinserted, snd before + t.Regular_dc.repaired)
        (Metrics.counter_value reinserted, Metrics.counter_value repaired))

(* ---- qcheck ---- *)

(* Erdős–Rényi, random-regular and circulant graphs under small explicit
   thresholds, where line 9 reinserts and the repair test reads its
   reinsertions. *)
let cor3_input =
  let open QCheck.Gen in
  let* seed = int_bound 10_000 in
  let* n = int_range 12 40 in
  let* family = int_bound 2 in
  let* a = int_range 1 4 in
  let* b = int_range 1 5 in
  let+ param = int_range 2 8 in
  let rng = Prng.create seed in
  let g =
    match family with
    | 0 -> Generators.erdos_renyi rng n (float_of_int param /. 20.)
    | 1 ->
        let d = min (n - 1) (param + 1) in
        Generators.random_regular rng (if n * d mod 2 = 1 then n + 1 else n) d
    | _ -> Generators.circulant n (List.init (min param ((n - 1) / 2)) succ)
  in
  (seed, (a, b), g)

let prop_cor3_equality =
  QCheck.Test.make ~name:"distributed = centralized on random graphs, small thresholds" ~count:120
    (QCheck.make
       ~print:(fun (seed, (a, b), g) ->
         Printf.sprintf "seed=%d a=%d b=%d n=%d m=%d" seed a b (Graph.n g) (Graph.m g))
       cor3_input)
    (fun (seed, (a, b), g) ->
      let thresholds = Regular_dc.Explicit (a, b) in
      let dist = Dist_spanner.run ~thresholds ~seed g in
      graphs_equal dist.Dist_spanner.spanner (algorithm1 ~thresholds g dist))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "distributed"
    [
      ( "local-model",
        [
          Alcotest.test_case "empty round-0 inbox" `Quick test_local_no_messages_round0;
          Alcotest.test_case "delivery" `Quick test_local_delivery;
          Alcotest.test_case "sender ids" `Quick test_local_sender_matches_payload;
          Alcotest.test_case "non-neighbor rejected" `Quick test_local_rejects_non_neighbor;
          Alcotest.test_case "distributed BFS" `Quick test_local_bfs_protocol;
        ] );
      ( "corollary3",
        [
          Alcotest.test_case "matches reference" `Quick test_cor3_matches_algorithm1;
          Alcotest.test_case "line 9 inputs" `Quick test_cor3_line9_inputs;
          Alcotest.test_case "constant rounds" `Quick test_cor3_constant_rounds;
          Alcotest.test_case "spanner properties" `Quick test_cor3_spanner_properties;
          Alcotest.test_case "custom thresholds" `Quick test_cor3_custom_thresholds;
          Alcotest.test_case "seed determinism" `Quick test_cor3_deterministic_in_seed;
          Alcotest.test_case "build counters untouched" `Quick test_cor3_leaves_build_counters;
          Alcotest.test_case "weighted input rejected" `Quick test_cor3_rejects_weights;
        ] );
      ("properties", q [ prop_cor3_equality ]);
    ]
