(* Fidelity and tooling tests: the literal Algorithm 2 loop vs the closed
   form, the Lanczos eigenvalue estimator vs closed forms and power
   iteration, the expander mixing lemma checker (Lemma 3), routing-problem
   serialization, and CSV export. *)

let check = Alcotest.check

(* ---- literal Algorithm 2 vs closed form ---- *)

let routing_for seed k =
  let g = Generators.torus 6 6 in
  let c = Graph.snapshot g in
  let rng = Prng.create seed in
  let problem = Problems.random_pairs rng g ~k in
  Sp_routing.route_random c rng problem

let test_literal_levels_structure () =
  for seed = 1 to 8 do
    let routing = routing_for seed 50 in
    let literal = Decompose.literal_levels routing in
    (* 1. every (path, edge) pair appears exactly once *)
    let pairs = Hashtbl.create 64 in
    List.iter
      (fun (key, _) ->
        check Alcotest.bool "pair unique" false (Hashtbl.mem pairs key);
        Hashtbl.add pairs key ())
      literal;
    let total_edges =
      Array.fold_left (fun acc p -> acc + Routing.length p) 0 routing
    in
    check Alcotest.int "covers all path edges" total_edges (List.length literal);
    (* 2. per edge, the multiset of levels is exactly {0 .. t-1} where t is
       the number of owning paths — the closed-form invariant *)
    let by_edge = Hashtbl.create 64 in
    List.iter
      (fun ((_, e), level) ->
        let cur = try Hashtbl.find by_edge e with Not_found -> [] in
        Hashtbl.replace by_edge e (level :: cur))
      literal;
    Hashtbl.iter
      (fun _ levels ->
        let sorted = List.sort compare levels in
        List.iteri (fun i l -> check Alcotest.int "levels are 0..t-1" i l) sorted)
      by_edge
  done

let test_literal_levels_single_path () =
  let literal = Decompose.literal_levels [| [| 0; 1; 2; 3 |] |] in
  check Alcotest.int "three pairs" 3 (List.length literal);
  List.iter (fun (_, level) -> check Alcotest.int "all level 0" 0 level) literal

let test_literal_levels_shared_edge () =
  (* two paths over the same edge: one gets level 0, the other level 1 *)
  let literal = Decompose.literal_levels [| [| 0; 1 |]; [| 0; 1 |] |] in
  let levels = List.sort compare (List.map snd literal) in
  check Alcotest.(list int) "levels split" [ 0; 1 ] levels

(* ---- Lanczos ---- *)

let feq tol msg a b = check (Alcotest.float tol) msg a b

let test_lanczos_closed_forms () =
  feq 0.02 "K_20" 1.0 (Spectral.lambda_lanczos (Graph.snapshot (Generators.complete 20)));
  feq 0.02 "Q_5 (bipartite)" 5.0 (Spectral.lambda_lanczos (Graph.snapshot (Generators.hypercube 5)));
  let n = 25 in
  feq 0.02 "C_25"
    (2.0 *. cos (Float.pi /. float_of_int n))
    (Spectral.lambda_lanczos (Graph.snapshot (Generators.cycle n)));
  feq 0.02 "K_{8,8}" 8.0 (Spectral.lambda_lanczos (Graph.snapshot (Generators.complete_bipartite 8 8)))

let test_lanczos_matches_power_iteration () =
  List.iter
    (fun seed ->
      let g = Generators.random_regular (Prng.create seed) 150 12 in
      let c = Graph.snapshot g in
      let p = Spectral.lambda c in
      let l = Spectral.lambda_lanczos c in
      check Alcotest.bool
        (Printf.sprintf "agree: power %.3f vs lanczos %.3f" p l)
        true
        (Float.abs (p -. l) < 0.15))
    [ 1; 2; 3 ]

let test_lanczos_trivial () =
  feq 1e-9 "single node" 0.0 (Spectral.lambda_lanczos (Graph.snapshot (Graph.create 1)));
  (* two isolated nodes: spectrum {0}; deflated operator is 0 *)
  feq 0.05 "empty graph" 0.0 (Spectral.lambda_lanczos (Graph.snapshot (Graph.create 2)))

(* ---- mixing lemma ---- *)

let test_e_between () =
  let g = Graph.snapshot (Generators.complete_bipartite 3 4) in
  (* S = left part, T = right part: all 12 edges cross *)
  check Alcotest.int "K_{3,4} full cut" 12
    (Mixing.e_between g [| 0; 1; 2 |] [| 3; 4; 5; 6 |]);
  check Alcotest.int "partial" 4 (Mixing.e_between g [| 0 |] [| 3; 4; 5; 6 |]);
  check Alcotest.int "no left-left edges" 0 (Mixing.e_between g [| 0 |] [| 1; 2 |])

let test_mixing_lemma_holds () =
  (* With the true lambda, the inequality must hold on every sample. *)
  List.iter
    (fun (name, g, lambda) ->
      let c = Graph.snapshot g in
      let rng = Prng.create 7 in
      let r = Mixing.check ~trials:60 rng c ~lambda in
      check Alcotest.int (name ^ ": no violations") 0 r.Mixing.violations;
      check Alcotest.bool (name ^ ": ratio <= 1") true (r.Mixing.worst_ratio <= 1.0))
    [
      ("complete", Generators.complete 40, 1.0);
      ("hypercube", Generators.hypercube 6, 6.0);
      ( "random regular",
        Generators.random_regular (Prng.create 3) 120 20,
        Spectral.lambda_lanczos (Graph.snapshot (Generators.random_regular (Prng.create 3) 120 20))
      );
    ]

let test_mixing_lemma_detects_fake_lambda () =
  (* With lambda far below the truth, some sample must violate. *)
  let g = Generators.random_regular (Prng.create 4) 120 20 in
  let c = Graph.snapshot g in
  let rng = Prng.create 8 in
  let r = Mixing.check ~trials:80 rng c ~lambda:0.3 in
  check Alcotest.bool "violations found" true (r.Mixing.violations > 0)

(* ---- routing problem I/O ---- *)

let roundtrip problem =
  let path = Filename.temp_file "dcs_problem" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Routing_io.write problem path;
      Routing_io.read path)

let test_routing_io_roundtrip () =
  let rng = Prng.create 9 in
  let g = Generators.torus 5 5 in
  List.iter
    (fun problem ->
      let got = roundtrip problem in
      check Alcotest.int "size" (Array.length problem) (Array.length got);
      Array.iteri
        (fun i { Routing.src; dst } ->
          check Alcotest.int "src" src got.(i).Routing.src;
          check Alcotest.int "dst" dst got.(i).Routing.dst)
        problem)
    [ Problems.permutation rng g; Problems.random_pairs rng g ~k:12; [||] ]

let parse_problem_string ?n s =
  let path = Filename.temp_file "dcs_problem" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc s;
      close_out oc;
      Routing_io.read ?n path)

let test_routing_io_validation () =
  let expect_fail ?n s =
    check Alcotest.bool s true
      (try
         ignore (parse_problem_string ?n s);
         false
       with Io_error.Parse_error _ -> true)
  in
  expect_fail "0 1\n";
  expect_fail "p 2\n0 1\n";
  expect_fail "p 1\n3 3\n";
  expect_fail ~n:4 "p 1\n0 9\n";
  expect_fail "p 1\nx y\n";
  let ok = parse_problem_string ~n:5 "# c\np 1\n0 4\n" in
  check Alcotest.int "parsed" 1 (Array.length ok)

(* ---- Premise diagnostics ---- *)

let test_premise_good_regular () =
  let g = Generators.random_regular (Prng.create 21) 216 80 in
  let p = Premise.check g in
  check Alcotest.bool "delta ok" true p.Premise.delta_ok;
  check Alcotest.bool "regular" true p.Premise.regular;
  check Alcotest.bool "theorem 3 premises" true (Premise.theorem3_ok p);
  check Alcotest.bool "theorem 2 premises" true (Premise.theorem2_ok p);
  check Alcotest.(list string) "no warnings" [] (Premise.describe p)

let test_premise_sparse_graph_flagged () =
  let g = Generators.torus 10 10 in
  let p = Premise.check g in
  check Alcotest.bool "delta too small" false p.Premise.delta_ok;
  check Alcotest.bool "theorem 3 fails" false (Premise.theorem3_ok p);
  check Alcotest.bool "warnings present" true (Premise.describe p <> [])

let test_premise_irregular_flagged () =
  let g = Generators.star 100 in
  let p = Premise.check g in
  check Alcotest.bool "degree ratio large" true (p.Premise.degree_ratio > 2.0);
  check Alcotest.bool "theorem 3 fails" false (Premise.theorem3_ok p)

let test_premise_weak_expander_flagged () =
  (* ring of cliques: dense enough locally but terrible expansion *)
  let g = Generators.ring_of_cliques 10 22 in
  let p = Premise.check g in
  check Alcotest.bool "expander check fails" false p.Premise.expander_ok;
  check Alcotest.bool "theorem 2 fails" false (Premise.theorem2_ok p)

(* ---- Report CSV ---- *)

let test_report_csv () =
  let t = Report.create ~title:"x" ~columns:[ "a"; "b" ] in
  Report.add_row t [ "1"; "two, quoted \"here\"" ];
  Report.add_note t "a note";
  let csv = Report.csv t in
  check Alcotest.string "csv escaping"
    "a,b\n1,\"two, quoted \"\"here\"\"\"\n# a note\n" csv

(* ---- qcheck ---- *)

let prop_literal_levels_cover =
  QCheck.Test.make ~name:"literal levels cover all path edges once" ~count:40
    QCheck.(pair small_int (int_range 5 60))
    (fun (seed, k) ->
      let routing = routing_for seed k in
      let literal = Decompose.literal_levels routing in
      let total = Array.fold_left (fun acc p -> acc + Routing.length p) 0 routing in
      List.length literal = total)

let prop_routing_io_roundtrip =
  QCheck.Test.make ~name:"routing io roundtrip" ~count:40
    QCheck.(pair small_int (int_range 0 30))
    (fun (seed, k) ->
      let rng = Prng.create seed in
      let g = Generators.torus 5 5 in
      let problem = Problems.random_pairs rng g ~k:(max 1 k) in
      let got = roundtrip problem in
      got = problem)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "fidelity"
    [
      ( "literal-algorithm2",
        [
          Alcotest.test_case "structure" `Quick test_literal_levels_structure;
          Alcotest.test_case "single path" `Quick test_literal_levels_single_path;
          Alcotest.test_case "shared edge" `Quick test_literal_levels_shared_edge;
        ] );
      ( "lanczos",
        [
          Alcotest.test_case "closed forms" `Quick test_lanczos_closed_forms;
          Alcotest.test_case "matches power iteration" `Quick test_lanczos_matches_power_iteration;
          Alcotest.test_case "trivial graphs" `Quick test_lanczos_trivial;
        ] );
      ( "mixing-lemma",
        [
          Alcotest.test_case "e_between" `Quick test_e_between;
          Alcotest.test_case "holds with true lambda" `Quick test_mixing_lemma_holds;
          Alcotest.test_case "detects fake lambda" `Quick test_mixing_lemma_detects_fake_lambda;
        ] );
      ( "routing-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_routing_io_roundtrip;
          Alcotest.test_case "validation" `Quick test_routing_io_validation;
        ] );
      ( "premise",
        [
          Alcotest.test_case "good regular expander" `Quick test_premise_good_regular;
          Alcotest.test_case "sparse graph flagged" `Quick test_premise_sparse_graph_flagged;
          Alcotest.test_case "irregular flagged" `Quick test_premise_irregular_flagged;
          Alcotest.test_case "weak expander flagged" `Quick test_premise_weak_expander_flagged;
        ] );
      ("report-csv", [ Alcotest.test_case "escaping" `Quick test_report_csv ]);
      ("properties", q [ prop_literal_levels_cover; prop_routing_io_roundtrip ]);
    ]
