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
      Csr.max_weight c = heaviest c && Csr.max_weight (Graph.snapshot g) = heaviest (Graph.snapshot g))

let test_csr_unweighted_reports_one () =
  let c = Csr.of_stream ~n:3 (fun emit -> emit 0 1; emit 1 2) in
  check Alcotest.bool "unweighted" false (Csr.is_weighted c);
  check Alcotest.int "unit weight" 1 (Csr.edge_weight c 0 1)

(* ---- Graph delta log ---- *)

let test_graph_weight_roundtrip () =
  let g = Graph.of_weighted_edges 4 [ (0, 1, 3); (1, 2, 5); (2, 3, 1) ] in
  check Alcotest.bool "weighted flag" true (Graph.is_weighted g);
  check Alcotest.int "edge_weight" 5 (Graph.edge_weight g 1 2);
  let c = Graph.snapshot g in
  check Alcotest.int "snapshot carries weights" 5 (Csr.edge_weight c 1 2);
  (* delta on top of a weighted base *)
  ignore (Graph.add_edge ~weight:9 g 0 3);
  check Alcotest.int "delta edge weight" 9 (Graph.edge_weight g 0 3);
  check Alcotest.int "snapshot after delta" 9 (Csr.edge_weight (Graph.snapshot g) 0 3);
  (* resurrect-reweight: delete a base edge, re-add it with a new weight *)
  ignore (Graph.remove_edge g 1 2);
  check Alcotest.bool "deleted" false (Graph.mem_edge g 1 2);
  ignore (Graph.add_edge ~weight:2 g 1 2);
  check Alcotest.int "reweighted after resurrect" 2 (Graph.edge_weight g 1 2);
  check Alcotest.int "snapshot sees reweight" 2 (Csr.edge_weight (Graph.snapshot g) 1 2);
  (* re-add with the original weight must restore the plain base edge *)
  ignore (Graph.remove_edge g 2 3);
  ignore (Graph.add_edge ~weight:1 g 2 3);
  check Alcotest.int "resurrect at base weight" 1 (Graph.edge_weight g 2 3);
  check Alcotest.bool "invalid weight rejected" true
    (try ignore (Graph.add_edge ~weight:0 g 0 2); false with Invalid_argument _ -> true)

(* Deleted base edges are tombstone bytes over the committed arcs: private to
   each copy, hiding the base copy of a re-weighted edge, and dropped at a
   commit, whose new base renumbers every arc. *)
let test_tombstones () =
  let g =
    Graph.of_csr
      (Csr.of_weighted_stream ~n:5 (fun emit ->
           emit 0 1 2;
           emit 1 2 1;
           emit 2 3 3;
           emit 3 4 1;
           emit 0 4 5))
  in
  let row g v =
    let acc = ref [] in
    Graph.iter_neighbors_w g v (fun u w -> acc := (u, w) :: !acc);
    List.rev !acc
  in
  let row_t = Alcotest.(list (pair int int)) in
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  (* copy while a deletion is pending, so the copy starts with marks *)
  check Alcotest.bool "delete 3-4" true (Graph.remove_edge g 3 4);
  let c = Graph.copy g in
  check Alcotest.bool "copy deletes 1-2" true (Graph.remove_edge c 1 2);
  check Alcotest.bool "copy lost 1-2" false (Graph.mem_edge c 1 2);
  check Alcotest.bool "original keeps 1-2" true (Graph.mem_edge g 1 2);
  check row_t "original row 1" [ (0, 2); (2, 1) ] (row g 1);
  check Alcotest.(list int) "original iter_neighbors 2" [ 1; 3 ]
    (let acc = ref [] in
     Graph.iter_neighbors g 2 (fun u -> acc := u :: !acc);
     List.rev !acc);
  check Alcotest.int "original weight 1-2" 1 (Graph.edge_weight g 1 2);
  check Alcotest.bool "original deletes 2-3" true (Graph.remove_edge g 2 3);
  check Alcotest.bool "copy keeps 2-3" true (Graph.mem_edge c 2 3);
  check row_t "copy row 2" [ (3, 3) ] (row c 2);
  check Alcotest.int "copy weight 2-3" 3 (Graph.edge_weight c 2 3);
  check Alcotest.bool "edge_weight on a tombstoned base edge" true
    (raises (fun () -> Graph.edge_weight g 2 3));
  (* re-added at another weight: the addition answers, the base arc stays
     hidden, and the row reads base minus tombstones, then additions *)
  check Alcotest.bool "re-weighted resurrection" true (Graph.add_edge ~weight:7 g 2 3);
  check Alcotest.int "new weight" 7 (Graph.edge_weight g 2 3);
  check row_t "row 2 hides the base arc" [ (1, 1); (3, 7) ] (row g 2);
  check row_t "row 3 hides the base arcs" [ (2, 7) ] (row g 3);
  check Alcotest.int "m" 4 (Graph.m g);
  (* after a commit the old marks are gone: deleting one edge of the new
     base hides exactly that edge *)
  ignore (Graph.snapshot g);
  check Alcotest.bool "delete on the new base" true (Graph.remove_edge g 0 1);
  check Alcotest.(list (pair int int)) "edges after snapshot + delete"
    [ (0, 4); (1, 2); (2, 3) ]
    (List.sort compare (Graph.edges g));
  check Alcotest.int "committed re-weight" 7 (Graph.edge_weight g 2 3);
  check Alcotest.bool "0-1 hidden" true (raises (fun () -> Graph.edge_weight g 0 1))

let test_unit_weights_stay_unweighted () =
  let g = Graph.create 3 in
  ignore (Graph.add_edge ~weight:1 g 0 1);
  ignore (Graph.add_edge g 1 2);
  check Alcotest.bool "all-1 graph is unweighted" false (Graph.is_weighted g);
  check Alcotest.bool "snapshot unweighted" false (Csr.is_weighted (Graph.snapshot g))

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
        | _ -> ignore (Graph.snapshot g));
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
        let c = Graph.snapshot g in
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
      let c = Graph.snapshot g in
      let n = Csr.n c in
      let s = seed mod n in
      Dijkstra.distances c s = Bfs.distances c s
      && Dijkstra.distances_bounded c s ~bound:3 = Bfs.distances_bounded c s ~bound:3)

let prop_dijkstra_eq_floyd_warshall =
  QCheck.Test.make ~name:"dijkstra = floyd-warshall on weighted graphs" ~count:50
    QCheck.(triple small_int (int_range 2 25) (int_range 1 9))
    (fun (seed, n, w_max) ->
      let g = random_weighted_graph seed n 0.25 ~w_max in
      let c = Graph.snapshot g in
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
      let c = Graph.snapshot (random_weighted_graph seed n 0.25 ~w_max) in
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

(* ---- Baswana–Sen pinned to a hashed BS07 reference ---- *)

(* BS07 on hashed structures: a Hashtbl of per-cluster minima per vertex,
   polymorphic tuple compares, and a residual [Graph.copy] whose drops are
   committed at round end, followed by the removal of every residual edge
   inside one of the round's new clusters.  (weight, neighbor) picks each
   cluster's lightest edge and the cluster to join; the cover test compares
   weights alone.  [build] must return the same spanner for the same
   draws. *)
let bs_lightest_edges residual cluster v =
  let best = Hashtbl.create 8 in
  Graph.iter_neighbors_w residual v (fun u w ->
      let c = cluster.(u) in
      if c >= 0 then
        match Hashtbl.find_opt best c with
        | Some (w', u') when (w', u') <= (w, u) -> ()
        | _ -> Hashtbl.replace best c (w, u));
  best

let bs_reference ?(k = 2) rng g =
  if k < 1 then invalid_arg "Baswana_sen_weighted.build: k < 1";
  let n = Graph.n g in
  let h = Graph.empty_like g in
  if n > 0 then begin
    let p = float_of_int n ** (-1.0 /. float_of_int k) in
    let residual = Graph.copy g in
    let cluster = ref (Array.init n (fun v -> v)) in
    let add_edges adds =
      List.iter (fun (v, u, w) -> ignore (Graph.add_edge ~weight:w h v u)) adds
    in
    for _round = 1 to k - 1 do
      let cl = !cluster in
      let is_center = Array.make n false in
      for v = 0 to n - 1 do
        if cl.(v) >= 0 then is_center.(cl.(v)) <- true
      done;
      let sampled = Array.make n false in
      for c = 0 to n - 1 do
        if is_center.(c) then sampled.(c) <- Prng.bool rng p
      done;
      let next = Array.make n (-1) in
      for v = 0 to n - 1 do
        if cl.(v) >= 0 && sampled.(cl.(v)) then next.(v) <- cl.(v)
      done;
      let adds = ref [] and drops = ref [] and retired = ref [] in
      for v = 0 to n - 1 do
        if cl.(v) >= 0 && (not sampled.(cl.(v))) && Graph.degree residual v > 0 then begin
          let best = bs_lightest_edges residual cl v in
          let best_sampled = ref None in
          Hashtbl.iter
            (fun c (w, u) ->
              if sampled.(c) then
                match !best_sampled with
                | Some (w', u', c') when (w', u', c') <= (w, u, c) -> ()
                | _ -> best_sampled := Some (w, u, c))
            best;
          match !best_sampled with
          | None ->
              Hashtbl.iter (fun _c (w, u) -> adds := (v, u, w) :: !adds) best;
              retired := v :: !retired
          | Some (wstar, ustar, cstar) ->
              adds := (v, ustar, wstar) :: !adds;
              next.(v) <- cstar;
              Hashtbl.iter
                (fun c (w, u) -> if c <> cstar && w < wstar then adds := (v, u, w) :: !adds)
                best;
              Graph.iter_neighbors_w residual v (fun u _w ->
                  let c = cl.(u) in
                  if c = cstar || (c >= 0 && fst (Hashtbl.find best c) < wstar) then
                    drops := (v, u) :: !drops)
        end
      done;
      add_edges !adds;
      List.iter (fun (v, u) -> ignore (Graph.remove_edge residual v u)) !drops;
      List.iter (fun v -> ignore (Graph.isolate residual v)) !retired;
      List.iter
        (fun (u, v) ->
          if next.(u) >= 0 && next.(u) = next.(v) then ignore (Graph.remove_edge residual u v))
        (Graph.edges residual);
      cluster := next
    done;
    let cl = !cluster in
    let adds = ref [] in
    for v = 0 to n - 1 do
      if Graph.degree residual v > 0 then begin
        let best = bs_lightest_edges residual cl v in
        Hashtbl.iter (fun _c (w, u) -> adds := (v, u, w) :: !adds) best
      end
    done;
    add_edges !adds
  end;
  h

(* Churn [ops] random mutations into [g]: deletions of base edges, additions
   of non-edges, and resurrections at the same and at a different weight. *)
let churn_graph rng g ops =
  let n = Graph.n g in
  if n >= 2 then
    for _ = 1 to ops do
      let u = Prng.int rng n and v = Prng.int rng n in
      let w = 1 + Prng.int rng 6 in
      if Graph.mem_edge g u v then
        match Prng.int rng 3 with
        | 0 -> ignore (Graph.remove_edge g u v)
        | 1 ->
            let w0 = Graph.edge_weight g u v in
            ignore (Graph.remove_edge g u v);
            ignore (Graph.add_edge ~weight:w0 g u v)
        | _ ->
            let w0 = Graph.edge_weight g u v in
            ignore (Graph.remove_edge g u v);
            ignore (Graph.add_edge ~weight:(1 + (w0 mod 6)) g u v)
      else ignore (Graph.add_edge ~weight:w g u v)
    done

(* Weighted and unit expanders (committed stores), [random_regular] as
   generated (a pending switch-repair delta), the same with redrawn weights
   (all pending additions), weighted tori, an expander under 31 mutations,
   and small random graphs (n = 0 .. 39, often disconnected) under churn. *)
let bs_families =
  [|
    (fun rng -> Generators.weighted_expander rng 60 12 ~w_max:8);
    (fun rng -> Generators.weighted_expander rng 60 12 ~w_max:1);
    (fun rng -> Generators.randomize_weights rng (Generators.random_regular rng 40 8) ~w_max:5);
    (fun rng -> Generators.random_regular rng 40 8);
    (fun rng -> Generators.weighted_torus rng 5 6 ~w_max:4);
    (fun rng ->
      let g = Generators.weighted_expander rng 60 12 ~w_max:8 in
      churn_graph rng g 31;
      g);
    (fun rng ->
      let n = Prng.int rng 40 in
      let g = random_weighted_graph (Prng.int rng 1000) n (Prng.float rng *. 0.4) ~w_max:5 in
      churn_graph rng g (Prng.int rng 40);
      g);
  |]

let edges_w g =
  let es = ref [] in
  Graph.iter_edges_w g (fun u v w -> es := (u, v, w) :: !es);
  List.rev !es

(* [build] and [bs_reference] agree on H's snapshot element for element
   (the weights' None-ness included), on is_weighted and m, and neither
   touches G: its version and edge order stay put. *)
let bs_agrees ~k seed g =
  let version = Graph.version g and order = edges_w g in
  let h = Baswana_sen_weighted.build ~k (Prng.create seed) g in
  let r = bs_reference ~k (Prng.create seed) g in
  let a = Graph.snapshot h and b = Graph.snapshot r in
  a.Csr.n = b.Csr.n
  && a.Csr.xadj = b.Csr.xadj
  && a.Csr.adjncy = b.Csr.adjncy
  && a.Csr.weights = b.Csr.weights
  && a.Csr.max_weight = b.Csr.max_weight
  && Graph.is_weighted h = Graph.is_weighted r
  && Graph.m h = Graph.m r
  && Graph.version g = version
  && edges_w g = order

let prop_weighted_bs_matches_reference =
  QCheck.Test.make ~name:"weighted baswana-sen = hashed reference, G untouched" ~count:200
    QCheck.(quad small_int (int_range 0 6) (int_range 1 4) bool)
    (fun (seed, fam, k, snap) ->
      let fam = max 0 (min 6 fam) and k = max 1 (min 4 k) in
      let g = bs_families.(fam) (Prng.create seed) in
      (* a prior snapshot commits G's delta, which must not matter *)
      if snap then ignore (Graph.snapshot g);
      bs_agrees ~k (seed + 1) g)

let test_weighted_bs_tiny () =
  let graphs =
    [
      Graph.create 0;
      Graph.create 1;
      Graph.create 2;
      Graph.of_weighted_edges 2 [ (0, 1, 3) ];
      (* two components and an isolated node *)
      Graph.of_weighted_edges 7 [ (0, 1, 2); (1, 2, 2); (0, 2, 1); (3, 4, 5); (4, 5, 1) ];
    ]
  in
  List.iteri
    (fun i g ->
      for k = 1 to 4 do
        for seed = 1 to 3 do
          check Alcotest.bool (Printf.sprintf "graph %d, k = %d, seed %d" i k seed) true
            (bs_agrees ~k seed g)
        done
      done)
    graphs;
  check Alcotest.int "n = 0 gives the empty graph" 0
    (Graph.n (Baswana_sen_weighted.build (Prng.create 1) (Graph.create 0)));
  check Alcotest.bool "k < 1 rejected" true
    (try
       ignore (Baswana_sen_weighted.build ~k:0 (Prng.create 1) (Graph.create 3));
       false
     with Invalid_argument msg -> msg = "Baswana_sen_weighted.build: k < 1")

(* The sampling and tie-break decisions, pinned: per input, k and seed,
   m(H) and a digest of H's sorted weighted edge list.  They moved once,
   when the cover test came to compare weights alone and each round came to
   discard its intra-cluster edges (BS07). *)
let test_weighted_bs_pinned () =
  let inputs =
    [
      ("expander", fun s -> Generators.weighted_expander (Prng.create s) 400 24 ~w_max:8);
      ( "regular",
        fun s ->
          Generators.randomize_weights (Prng.create (s + 1))
            (Generators.random_regular (Prng.create s) 120 16)
            ~w_max:8 );
    ]
  in
  let want =
    [
      ("expander", 2, 1, 4537, "32e14a52d7761cdc8a395da9c2b27631");
      ("expander", 2, 2, 4536, "e0ae0765f56e5f2aa61b5cdbb14a0e20");
      ("expander", 2, 3, 4586, "5e92b846131a6785957662c2c78df47e");
      ("expander", 3, 1, 4087, "140db0e6897cf75698e963ed0fdfb17f");
      ("expander", 3, 2, 4038, "4b4bce1d0b6cef6d178122b9976c96ed");
      ("expander", 3, 3, 3870, "ec87a16de1383c0a32f5d1c85987810b");
      ("regular", 2, 1, 925, "d94c30826c71c1ca34909fda98178390");
      ("regular", 2, 2, 915, "49fcdd664f653487a55e9dd2462a7436");
      ("regular", 2, 3, 905, "b6ce9cf068f3319de733b8b874039334");
      ("regular", 3, 1, 840, "a2f651861ede8d09af0d9cf9a6b8f429");
      ("regular", 3, 2, 840, "7b8c90ad963db02cd2911f47852e02fe");
      ("regular", 3, 3, 801, "e719d49258af676338635cc7cd44a1c2");
    ]
  in
  List.iter
    (fun (name, k, seed, m, digest) ->
      let g = (List.assoc name inputs) seed in
      let h = Baswana_sen_weighted.build ~k (Prng.create (1000 + seed)) g in
      let lines =
        List.map (fun (u, v, w) -> Printf.sprintf "%d %d %d\n" u v w) (List.sort compare (edges_w h))
      in
      check
        Alcotest.(pair int string)
        (Printf.sprintf "%s k=%d seed=%d" name k seed)
        (m, digest)
        (Graph.m h, Digest.to_hex (Digest.string (String.concat "" lines))))
    want

(* On unit weights the build is textbook BS07 in size too.  A cover test
   that broke weight ties by neighbor kept 8,663–11,633 edges on these
   inputs; BS07 keeps 3,903–5,108. *)
let test_weighted_bs_unit_size () =
  for gs = 1 to 2 do
    let g = Generators.random_regular (Prng.create gs) 384 128 in
    for bs = 101 to 105 do
      let m = Graph.m (Baswana_sen_weighted.build ~k:2 (Prng.create bs) g) in
      check Alcotest.bool
        (Printf.sprintf "graph seed %d, build seed %d: %d edges <= 5,500" gs bs m)
        true (m <= 5_500)
    done
  done

(* One build on weighted-certify's input allocates well under the hashed
   construction's ~2.0M heap words, and H comes back committed: its snapshot
   is cached, so reading it builds no CSR. *)
let test_weighted_bs_allocation () =
  let g = Generators.weighted_expander (Prng.create 1) 384 192 ~w_max:8 in
  let words () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let before = words () in
  let h = Baswana_sen_weighted.build ~k:2 (Prng.create 3) g in
  let used = words () -. before in
  check Alcotest.bool (Printf.sprintf "%.0f heap words <= 500,000" used) true (used <= 500_000.);
  Metrics.reset ();
  Obs.set_metrics true;
  let first, second =
    Fun.protect
      ~finally:(fun () -> Obs.set_metrics false)
      (fun () ->
        let first = Graph.snapshot h in
        (first, Graph.snapshot h))
  in
  check Alcotest.bool "snapshot is the cached store" true (first == second);
  check Alcotest.int "no CSR rebuilt" 0
    (Metrics.counter_value (Metrics.counter "csr.snapshot_builds"))

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
      let hc = Graph.snapshot h in
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
          Alcotest.test_case "tombstones" `Quick test_tombstones;
          qt prop_is_weighted_is_exact;
          qt prop_copy_and_survivor_preserve_weights;
        ] );
      ( "kernels",
        [
          qt prop_dijkstra_eq_bfs_on_unit_weights;
          qt prop_dijkstra_eq_floyd_warshall;
          qt prop_dijkstra_to_targets;
        ] );
      ( "baswana-sen",
        [
          qt prop_weighted_bs_stretch;
          qt prop_weighted_bs_matches_reference;
          Alcotest.test_case "tiny and disconnected = reference" `Quick test_weighted_bs_tiny;
          Alcotest.test_case "pinned decisions" `Quick test_weighted_bs_pinned;
          Alcotest.test_case "allocation budget, cached snapshot" `Quick
            test_weighted_bs_allocation;
          Alcotest.test_case "unit-weight size" `Quick test_weighted_bs_unit_size;
        ] );
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
