(* Weighted-stack tests: weights threaded through CSR, the delta-log Graph,
   the Dijkstra kernels, Graph_io, Stretch dispatch (the weighted ring of
   Bfs_batch and its per-group Dijkstra fallback)
   and the weighted Baswana–Sen construction.  Two oracles anchor all of it:
   on unit weights every weighted routine must coincide with its BFS-based
   counterpart bit for bit, and on small weighted graphs everything is
   checked against a Floyd–Warshall reference. *)

let check = Alcotest.check

(* ---- helpers ---- *)

let random_weighted_graph seed n p ~w_max =
  let rng = Prng.create seed in
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.bool rng p then
        ignore (Graph.add_edge ~weight:(1 + Prng.int rng w_max) g u v)
    done
  done;
  g

let random_subgraph seed keep g =
  let rng = Prng.create seed in
  let h = Graph.create (Graph.n g) in
  Graph.iter_edges_w g (fun u v w ->
      if Prng.bool rng keep then ignore (Graph.add_edge ~weight:w h u v));
  h

(* Floyd–Warshall reference: d.(u).(v) = weighted distance, [inf] if none *)
let fw_inf = max_int / 4

let floyd_warshall g =
  let n = Graph.n g in
  let d = Array.make_matrix n n fw_inf in
  for v = 0 to n - 1 do
    d.(v).(v) <- 0
  done;
  Graph.iter_edges_w g (fun u v w ->
      if w < d.(u).(v) then begin
        d.(u).(v) <- w;
        d.(v).(u) <- w
      end);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if d.(i).(k) + d.(k).(j) < d.(i).(j) then d.(i).(j) <- d.(i).(k) + d.(k).(j)
      done
    done
  done;
  d

let fw_row d s = Array.map (fun x -> if x >= fw_inf then -1 else x) d.(s)

(* ---- CSR weights ---- *)

let test_csr_weighted_stream () =
  let c =
    Csr.of_weighted_stream ~n:3 (fun emit ->
        emit 0 1 5;
        emit 1 0 2;
        (* duplicate arc: min weight must win on both directions *)
        emit 1 2 7)
  in
  check Alcotest.bool "weighted" true (Csr.is_weighted c);
  check Alcotest.int "dedup keeps min (0,1)" 2 (Csr.edge_weight c 0 1);
  check Alcotest.int "dedup keeps min (1,0)" 2 (Csr.edge_weight c 1 0);
  check Alcotest.int "plain weight" 7 (Csr.edge_weight c 2 1);
  check Alcotest.bool "bad weight rejected" true
    (try
       ignore (Csr.of_weighted_stream ~n:2 (fun emit -> emit 0 1 0));
       false
     with Invalid_argument _ -> true)

let test_csr_max_weight () =
  (* the heaviest weight that survives the minimum-weight dedupe: the
     losing copy of (0, 1) weighs 9 *)
  let c =
    Csr.of_weighted_stream ~n:3 (fun emit ->
        emit 0 1 9;
        emit 1 0 2;
        emit 1 2 7)
  in
  check Alcotest.int "heaviest kept weight" 7 (Csr.max_weight c);
  check Alcotest.int "unweighted" 1 (Csr.max_weight (Csr.of_stream ~n:3 (fun emit -> emit 0 1)));
  check Alcotest.int "no arcs" 1 (Csr.max_weight (Csr.of_weighted_stream ~n:3 (fun _ -> ())));
  check Alcotest.int "empty" 1 (Csr.max_weight (Csr.empty 4))

let prop_max_weight =
  QCheck.Test.make ~name:"max_weight = heaviest of iter_edges_w, duplicate arcs included"
    ~count:60
    QCheck.(pair small_int (int_range 1 30))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let arcs = List.init (3 * n) (fun _ -> (Prng.int rng n, Prng.int rng n, 1 + Prng.int rng 20)) in
      let c = Csr.of_weighted_stream ~n (fun emit -> List.iter (fun (u, v, w) -> emit u v w) arcs) in
      let heaviest c =
        let m = ref 1 in
        Csr.iter_edges_w c (fun _ _ w -> m := max !m w);
        !m
      in
      let g = random_weighted_graph seed n 0.3 ~w_max:(1 + (seed mod 9)) in
      Csr.max_weight c = heaviest c && Csr.max_weight (Csr.snapshot g) = heaviest (Csr.snapshot g))

let test_csr_unweighted_reports_one () =
  let c = Csr.of_stream ~n:3 (fun emit -> emit 0 1; emit 1 2) in
  check Alcotest.bool "unweighted" false (Csr.is_weighted c);
  check Alcotest.int "unit weight" 1 (Csr.edge_weight c 0 1)

(* ---- Graph delta log ---- *)

let test_graph_weight_roundtrip () =
  let g = Graph.of_weighted_edges 4 [ (0, 1, 3); (1, 2, 5); (2, 3, 1) ] in
  check Alcotest.bool "weighted flag" true (Graph.is_weighted g);
  check Alcotest.int "edge_weight" 5 (Graph.edge_weight g 1 2);
  let c = Csr.snapshot g in
  check Alcotest.int "snapshot carries weights" 5 (Csr.edge_weight c 1 2);
  (* delta on top of a weighted base *)
  ignore (Graph.add_edge ~weight:9 g 0 3);
  check Alcotest.int "delta edge weight" 9 (Graph.edge_weight g 0 3);
  check Alcotest.int "snapshot after delta" 9 (Csr.edge_weight (Csr.snapshot g) 0 3);
  (* resurrect-reweight: delete a base edge, re-add it with a new weight *)
  ignore (Graph.remove_edge g 1 2);
  check Alcotest.bool "deleted" false (Graph.mem_edge g 1 2);
  ignore (Graph.add_edge ~weight:2 g 1 2);
  check Alcotest.int "reweighted after resurrect" 2 (Graph.edge_weight g 1 2);
  check Alcotest.int "snapshot sees reweight" 2 (Csr.edge_weight (Csr.snapshot g) 1 2);
  (* re-add with the original weight must restore the plain base edge *)
  ignore (Graph.remove_edge g 2 3);
  ignore (Graph.add_edge ~weight:1 g 2 3);
  check Alcotest.int "resurrect at base weight" 1 (Graph.edge_weight g 2 3);
  check Alcotest.bool "invalid weight rejected" true
    (try ignore (Graph.add_edge ~weight:0 g 0 2); false with Invalid_argument _ -> true)

let test_unit_weights_stay_unweighted () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge ~weight:1 g 0 1);
  ignore (Graph.add_edge g 1 2);
  check Alcotest.bool "all-1 graph is unweighted" false (Graph.is_weighted g);
  check Alcotest.bool "snapshot unweighted" false (Csr.is_weighted (Csr.snapshot g))

let prop_is_weighted_is_exact =
  QCheck.Test.make ~name:"is_weighted = some live edge weighs <> 1" ~count:60
    QCheck.(pair small_int (int_range 2 12))
    (fun (seed, n) ->
      let rng = Prng.create seed in
      let g = Graph.create n in
      let live_nonunit () =
        let k = ref false in
        Graph.iter_edges_w g (fun _ _ w -> if w <> 1 then k := true);
        !k
      in
      let ok = ref true in
      for _ = 1 to 80 do
        let u = Prng.int rng n and v = Prng.int rng n in
        (match Prng.int rng 3 with
        | 0 -> ignore (Graph.add_edge ~weight:(1 + Prng.int rng 2) g u v)
        | 1 -> ignore (Graph.remove_edge g u v)
        | _ -> ignore (Csr.snapshot g));
        if Graph.is_weighted g <> live_nonunit () then ok := false
      done;
      !ok)

let prop_copy_and_survivor_preserve_weights =
  QCheck.Test.make ~name:"copy/survivor/to_csr preserve weights" ~count:40
    QCheck.(pair small_int (int_range 2 30))
    (fun (seed, n) ->
      let g = random_weighted_graph seed n 0.3 ~w_max:7 in
      let ok_copy =
        let g' = Graph.copy g in
        let ok = ref (Graph.m g' = Graph.m g) in
        Graph.iter_edges_w g (fun u v w -> if Graph.edge_weight g' u v <> w then ok := false);
        !ok
      in
      let ok_surv =
        let alive = Array.init n (fun v -> v mod 5 <> 0) in
        let s = Graph.survivor g ~alive in
        let ok = ref true in
        Graph.iter_edges_w s (fun u v w ->
            if (not alive.(u)) || (not alive.(v)) || Graph.edge_weight g u v <> w then ok := false);
        !ok
      in
      let ok_csr =
        let c = Csr.snapshot g in
        let ok = ref true in
        Graph.iter_edges_w g (fun u v w -> if Csr.edge_weight c u v <> w then ok := false);
        !ok
      in
      ok_copy && ok_surv && ok_csr)

(* ---- Dijkstra vs BFS on unit weights, vs Floyd–Warshall on weights ---- *)

let unit_families =
  [|
    (fun seed -> Generators.expander (Prng.create seed) 40 4);
    (fun seed -> Generators.erdos_renyi (Prng.create seed) 30 0.12);
    (fun _ -> Generators.torus 5 6);
    (fun _ -> Generators.margulis 5);
    (fun _ -> Generators.ring_of_cliques 4 5);
    (fun seed -> Generators.preferential_attachment (Prng.create seed) ~n:30 ~m:3);
  |]

let prop_dijkstra_eq_bfs_on_unit_weights =
  QCheck.Test.make ~name:"dijkstra = bfs on every unit-weight family" ~count:60
    QCheck.(pair small_int (int_range 0 1000))
    (fun (seed, pick) ->
      let g = unit_families.(pick mod Array.length unit_families) seed in
      let c = Csr.snapshot g in
      let n = Csr.n c in
      let s = seed mod n in
      Dijkstra.distances c s = Bfs.distances c s
      && Dijkstra.distances_bounded c s ~bound:3 = Bfs.distances_bounded c s ~bound:3)

let prop_dijkstra_eq_floyd_warshall =
  QCheck.Test.make ~name:"dijkstra = floyd-warshall on weighted graphs" ~count:50
    QCheck.(triple small_int (int_range 2 25) (int_range 1 9))
    (fun (seed, n, w_max) ->
      let g = random_weighted_graph seed n 0.25 ~w_max in
      let c = Csr.snapshot g in
      let d = floyd_warshall g in
      let s = seed mod n in
      let row = fw_row d s in
      Dijkstra.distances c s = row
      && Array.for_all2
           (fun got want -> got = if want >= 0 && want <= 4 then want else -1)
           (Dijkstra.distances_bounded c s ~bound:4)
           row
      && Dijkstra.distance c s ((s + 1) mod n) = row.((s + 1) mod n))

let settled_by f =
  Metrics.reset ();
  Obs.set_metrics true;
  Fun.protect
    ~finally:(fun () -> Obs.set_metrics false)
    (fun () ->
      let r = f () in
      (r, Metrics.counter_value (Metrics.counter "dijkstra.nodes_settled")))

let prop_dijkstra_to_targets =
  QCheck.Test.make ~name:"dijkstra to_targets = distances_bounded, settling no more" ~count:60
    QCheck.(quad small_int (int_range 1 30) (int_range 1 1000) (int_range 0 3))
    (fun (seed, n, w_max, bi) ->
      let bound = [| 0; 1; 5; max_int |].(bi) in
      let c = Csr.snapshot (random_weighted_graph seed n 0.25 ~w_max) in
      let rng = Prng.create (seed + 3) in
      let s = Prng.int rng n in
      (* duplicates, the source itself, sometimes no targets at all *)
      let targets =
        Array.init (Prng.int rng 6) (fun _ -> if Prng.bool rng 0.2 then s else Prng.int rng n)
      in
      let got, settled = settled_by (fun () -> Dijkstra.to_targets c s targets ~bound) in
      let row, full = settled_by (fun () -> Dijkstra.distances_bounded c s ~bound) in
      got = Array.map (fun v -> row.(v)) targets && settled <= full)

(* ---- weighted Baswana–Sen vs Floyd–Warshall ---- *)

let prop_weighted_bs_stretch =
  QCheck.Test.make ~name:"weighted baswana-sen: subgraph + stretch <= 2k-1" ~count:40
    QCheck.(quad small_int (int_range 4 40) (int_range 1 9) (int_range 2 3))
    (fun (seed, n, w_max, k) ->
      let g = random_weighted_graph seed n 0.3 ~w_max in
      let h = Baswana_sen_weighted.build ~k (Prng.create (seed + 1)) g in
      let subgraph = ref true in
      Graph.iter_edges_w h (fun u v w ->
          if (not (Graph.mem_edge g u v)) || Graph.edge_weight g u v <> w then subgraph := false);
      let d = floyd_warshall h in
      let stretch_ok = ref true in
      Graph.iter_edges_w g (fun u v w ->
          if d.(u).(v) > ((2 * k) - 1) * w then stretch_ok := false);
      !subgraph && !stretch_ok)

(* ---- Stretch dispatch: weighted kernels agree with each other and FW ---- *)

let weighted_pair seed n ~w_max =
  let g = random_weighted_graph seed n 0.3 ~w_max in
  (* keep connectivity-ish pairs interesting: the spanner drops 30% *)
  let h = random_subgraph (seed + 7) 0.7 g in
  (g, h)

let ratio_ceil d w = (d + w - 1) / w

let stretch_reference g h =
  let d = floyd_warshall h in
  let worst = ref 1 in
  Graph.iter_edges_w g (fun u v w ->
      if not (Graph.mem_edge h u v) then
        if d.(u).(v) >= fw_inf then worst := max_int
        else if !worst <> max_int then worst := max !worst (ratio_ceil d.(u).(v) w));
  !worst

let prop_weighted_stretch_kernels_agree =
  QCheck.Test.make ~name:"weighted exact/parallel/reference/grouped = floyd-warshall" ~count:40
    QCheck.(triple small_int (int_range 2 25) (int_range 2 9))
    (fun (seed, n, w_max) ->
      let g, h = weighted_pair seed n ~w_max in
      let want = stretch_reference g h in
      Stretch.exact g h = want
      && Stretch.exact_parallel ~domains:2 g h = want
      && Stretch.exact_reference g h = want)

let prop_weighted_violations_and_cert =
  QCheck.Test.make ~name:"weighted violations / cert / incremental agree" ~count:30
    QCheck.(triple small_int (int_range 3 20) (int_range 2 9))
    (fun (seed, n, w_max) ->
      (* QCheck's int shrinker ignores int_range bounds; clamp defensively *)
      let n = max 3 n and w_max = max 2 w_max in
      let g, h = weighted_pair seed n ~w_max in
      let bound = 3 in
      let want = Stretch.violations g h ~bound in
      let d = floyd_warshall h in
      let fw_want = ref [] in
      Graph.iter_edges_w g (fun u v w ->
          if (not (Graph.mem_edge h u v)) && d.(u).(v) > bound * w then
            fw_want := (min u v, max u v) :: !fw_want);
      let same_set a b =
        List.sort compare (List.map (fun (u, v) -> (min u v, max u v)) a)
        = List.sort compare b
      in
      let cert = Stretch.cert_create g h ~bound in
      (* read the cert BEFORE the mutation below refreshes it in place *)
      let cert_ok =
        List.sort compare (Stretch.cert_violations cert) = List.sort compare want
      in
      let inc_ok =
        (* mutate, then the incremental refresh must match a fresh sweep *)
        let u = seed mod n and v = (seed + 1) mod n in
        let touched = [| u; v |] in
        if u <> v then ignore (Graph.add_edge ~weight:2 g u v);
        let r = Stretch.violations_incremental cert g h ~touched in
        r.Stretch.inc_violations = Stretch.violations g h ~bound
      in
      same_set want !fw_want && cert_ok && inc_ok)

let prop_heavy_weights_match_reference =
  QCheck.Test.make ~name:"stretch entry points = reference, on the ring and past it"
    ~count:40
    QCheck.(triple small_int (int_range 3 25) (int_range 0 4))
    (fun (seed, n, bi) ->
      let n = max 3 n in
      (* 16 runs on the ring, heavier snapshots take per-group Dijkstra; the
         edge (0, 1) carries the heaviest weight into both graphs *)
      let w_max = [| 16; 17; 1000; 1_000_000 |].(seed mod 4) in
      let g, h = weighted_pair seed n ~w_max in
      if not (Graph.mem_edge g 0 1) then begin
        ignore (Graph.add_edge ~weight:w_max g 0 1);
        ignore (Graph.add_edge ~weight:w_max h 0 1)
      end;
      let bound = [| 1; 3; 7; max_int / 2; max_int |].(bi) in
      let hc = Csr.snapshot h in
      let violates u v w =
        let d = Dijkstra.distance hc u v in
        d < 0 || ratio_ceil d w > bound
      in
      let want_viol = ref [] in
      Graph.iter_edges_w g (fun u v w ->
          if (not (Graph.mem_edge h u v)) && violates u v w then want_viol := (u, v) :: !want_viol);
      let fresh_ok =
        Stretch.exact g h = Stretch.exact_reference g h
        && Stretch.exact_bounded g h ~bound = Stretch.exact_reference ~bound g h
        && Stretch.violations g h ~bound = List.sort compare !want_viol
      in
      (* then drop one spanner edge: the refresh must match a fresh sweep *)
      let cert = Stretch.cert_create g h ~bound in
      fresh_ok
      &&
      match Graph.edges h with
      | [] -> true
      | edges ->
          let u, v = List.nth edges (seed mod List.length edges) in
          ignore (Graph.remove_edge h u v);
          let r = Stretch.violations_incremental cert g h ~touched:[| u; v |] in
          r.Stretch.inc_violations = Stretch.violations g h ~bound)

let test_huge_bounds_saturate () =
  (* bound·w overflows for these bounds; the sweeps' level bound must
     saturate at max_int instead of wrapping negative *)
  let g = Generators.weighted_expander (Prng.create 3) 64 16 ~w_max:4 in
  let h = (Construction.build (Construction.find_exn "bsw") (Prng.create 4) g).Dc.spanner in
  let want = Stretch.exact g h in
  List.iter
    (fun bound ->
      let name what = Printf.sprintf "%s at bound %d" what bound in
      check Alcotest.(list (pair int int)) (name "violations") [] (Stretch.violations g h ~bound);
      check Alcotest.int (name "exact_bounded") want (Stretch.exact_bounded g h ~bound);
      check Alcotest.int (name "cert_stretch_bound") want
        (Stretch.cert_stretch_bound (Stretch.cert_create g h ~bound)))
    [ max_int / 2; max_int - 1; max_int ]

let prop_sampled_pairs_weighted_sound =
  QCheck.Test.make ~name:"sampled_pairs uses weighted distances" ~count:30
    QCheck.(triple small_int (int_range 3 20) (int_range 2 9))
    (fun (seed, n, w_max) ->
      let g, h = weighted_pair seed n ~w_max in
      Stretch.sampled_pairs (Prng.create seed) g h ~samples:20 >= 1.0)

(* ---- Graph_io weighted format ---- *)

let with_temp_file contents f =
  let path = Filename.temp_file "dcs_weighted_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_graph_io_weighted_roundtrip () =
  let g = Graph.of_weighted_edges 4 [ (0, 1, 3); (1, 2, 5); (0, 3, 1) ] in
  let path = Filename.temp_file "dcs_weighted_io" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.write g path;
      let g' = Graph_io.read path in
      check Alcotest.bool "read back weighted" true (Graph.is_weighted g');
      check Alcotest.int "m" (Graph.m g) (Graph.m g');
      Graph.iter_edges_w g (fun u v w ->
          check Alcotest.int (Printf.sprintf "weight %d-%d" u v) w (Graph.edge_weight g' u v)))

let test_graph_io_mixed_lines () =
  (* 2-field lines read as weight 1 next to 3-field lines *)
  with_temp_file "n 3 2\n0 1\n1 2 4\n" (fun path ->
      let g = Graph_io.read path in
      check Alcotest.bool "weighted" true (Graph.is_weighted g);
      check Alcotest.int "default weight" 1 (Graph.edge_weight g 0 1);
      check Alcotest.int "explicit weight" 4 (Graph.edge_weight g 1 2))

let test_graph_io_rejects_bad_weights () =
  List.iter
    (fun contents ->
      with_temp_file contents (fun path ->
          check Alcotest.bool (Printf.sprintf "%S rejected" contents) true
            (try
               ignore (Graph_io.read path);
               false
             with Io_error.Parse_error { line; _ } -> line = 2)))
    [ "n 3 1\n0 1 0\n"; "n 3 1\n0 1 -4\n"; "n 3 1\n0 1 x\n" ]

(* the header and the edge lines [Graph_io.write] produces for [g] *)
let written_lines g =
  let path = Filename.temp_file "dcs_unweighted_io" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.write g path;
      let ic = open_in path in
      let header = input_line ic in
      let rec edges acc =
        match input_line ic with l -> edges (l :: acc) | exception End_of_file -> List.rev acc
      in
      let lines = edges [] in
      close_in ic;
      (header, lines))

let fields line = List.length (String.split_on_char ' ' line)

let test_unweighted_write_has_no_third_field () =
  let header, lines = written_lines (Generators.cycle 4) in
  check Alcotest.string "header" "n 4 4" header;
  check Alcotest.int "two fields" 2 (fields (List.hd lines))

let test_is_weighted_tracks_live_edges () =
  (* removing the last non-unit edge makes the graph unweighted again, so
     it is written back as two-column lines *)
  let g = Generators.cycle 8 in
  check Alcotest.bool "added" true (Graph.add_edge ~weight:2 g 0 4);
  check Alcotest.bool "weighted" true (Graph.is_weighted g);
  check Alcotest.bool "removed" true (Graph.remove_edge g 0 4);
  check Alcotest.bool "unweighted again" false (Graph.is_weighted g);
  let header, lines = written_lines g in
  check Alcotest.string "header" "n 8 8" header;
  List.iter (fun l -> check Alcotest.int (Printf.sprintf "two fields in %S" l) 2 (fields l)) lines

(* ---- weighted generators ---- *)

let prop_weighted_generators_in_range =
  QCheck.Test.make ~name:"weighted generators: weights in [1, w_max], same shape" ~count:30
    QCheck.(pair small_int (int_range 1 9))
    (fun (seed, w_max) ->
      let in_range g =
        let ok = ref (Graph.m g > 0) in
        Graph.iter_edges_w g (fun _ _ w -> if w < 1 || w > w_max then ok := false);
        !ok
      in
      let torus_ok =
        let g = Generators.weighted_torus (Prng.create seed) 5 6 ~w_max in
        in_range g && Graph.m g = Graph.m (Generators.torus 5 6)
      in
      let exp_ok =
        let g = Generators.weighted_expander (Prng.create seed) 40 6 ~w_max in
        in_range g
      in
      let rand_ok =
        let base = Generators.erdos_renyi (Prng.create seed) 20 0.4 in
        let g = Generators.randomize_weights (Prng.create (seed + 1)) base ~w_max in
        in_range g && Graph.m g = Graph.m base
        && (let same = ref true in
            Graph.iter_edges base (fun u v -> if not (Graph.mem_edge g u v) then same := false);
            !same)
      in
      torus_ok && exp_ok && rand_ok)

(* ---- end-to-end: registry entry certifies on a weighted graph ---- *)

let test_bsw_registry_end_to_end () =
  let g = Generators.weighted_expander (Prng.create 11) 120 40 ~w_max:6 in
  let ctor = Construction.find_exn "bsw" in
  let dc = Construction.build ctor (Prng.create 12) g in
  let stretch = Stretch.exact g dc.Dc.spanner in
  check Alcotest.bool "sparsified or equal" true (Graph.m dc.Dc.spanner <= Graph.m g);
  check Alcotest.bool "certified <= 3" true (stretch <> max_int && stretch <= 3)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "weighted"
    [
      ( "csr",
        [
          Alcotest.test_case "weighted stream + min dedup" `Quick test_csr_weighted_stream;
          Alcotest.test_case "unweighted reports weight 1" `Quick test_csr_unweighted_reports_one;
          Alcotest.test_case "max_weight after dedupe" `Quick test_csr_max_weight;
          qt prop_max_weight;
        ] );
      ( "graph",
        [
          Alcotest.test_case "delta log round-trip + resurrect" `Quick test_graph_weight_roundtrip;
          Alcotest.test_case "all-1 weights stay unweighted" `Quick
            test_unit_weights_stay_unweighted;
          Alcotest.test_case "is_weighted tracks live edges" `Quick
            test_is_weighted_tracks_live_edges;
          qt prop_is_weighted_is_exact;
          qt prop_copy_and_survivor_preserve_weights;
        ] );
      ( "kernels",
        [
          qt prop_dijkstra_eq_bfs_on_unit_weights;
          qt prop_dijkstra_eq_floyd_warshall;
          qt prop_dijkstra_to_targets;
        ] );
      ("baswana-sen", [ qt prop_weighted_bs_stretch ]);
      ( "stretch",
        [
          qt prop_weighted_stretch_kernels_agree;
          qt prop_weighted_violations_and_cert;
          Alcotest.test_case "huge bounds saturate bound·w" `Quick test_huge_bounds_saturate;
          qt prop_sampled_pairs_weighted_sound;
          qt prop_heavy_weights_match_reference;
        ] );
      ( "io",
        [
          Alcotest.test_case "weighted round-trip" `Quick test_graph_io_weighted_roundtrip;
          Alcotest.test_case "mixed 2/3-field lines" `Quick test_graph_io_mixed_lines;
          Alcotest.test_case "bad weights rejected" `Quick test_graph_io_rejects_bad_weights;
          Alcotest.test_case "unweighted files unchanged" `Quick
            test_unweighted_write_has_no_third_field;
        ] );
      ("generators", [ qt prop_weighted_generators_in_range ]);
      ( "end-to-end",
        [ Alcotest.test_case "bsw registry certifies" `Quick test_bsw_registry_end_to_end ] );
    ]
