(* Bit-parallel kernel tests: the batched BFS (Bfs_batch) and everything
   rebuilt on top of it (Stretch certification, all-pairs distances,
   eccentricity/diameter signalling) must be bit-identical to the scalar
   reference paths, on connected and disconnected graphs alike. *)

let check = Alcotest.check

(* random graph that is disconnected reasonably often: sparse ER *)
let random_graph seed n p = Generators.erdos_renyi (Prng.create seed) n p

(* random subgraph on the same node set: keep each edge with probability
   [keep] — the generic "spanner pair" for certification properties *)
let random_subgraph seed keep g =
  let rng = Prng.create seed in
  let h = Graph.create (Graph.n g) in
  Graph.iter_edges g (fun u v -> if Prng.bool rng keep then ignore (Graph.add_edge h u v));
  h

(* ---- Bfs_batch vs scalar BFS ---- *)

let test_batch_empty_and_invalid () =
  let g = Graph.snapshot (Generators.cycle 5) in
  check Alcotest.int "no sources, no rows" 0 (Array.length (Bfs_batch.run g [||]));
  let too_many = Array.make (Bfs_batch.width + 1) 0 in
  let expects_invalid name f =
    check Alcotest.bool name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  expects_invalid "width overflow" (fun () -> Bfs_batch.run g too_many);
  expects_invalid "source range" (fun () -> Bfs_batch.run g [| 5 |]);
  expects_invalid "negative source" (fun () -> Bfs_batch.run g [| -1 |]);
  expects_invalid "one target array per source" (fun () ->
      Bfs_batch.to_targets g [| 0; 1 |] [| [||] |]);
  expects_invalid "target range" (fun () -> Bfs_batch.to_targets g [| 0 |] [| [| 5 |] |]);
  expects_invalid "negative target" (fun () -> Bfs_batch.to_targets g [| 0 |] [| [| -1 |] |]);
  check
    Alcotest.(array (array int))
    "empty target sets" [| [||]; [||] |]
    (Bfs_batch.to_targets g [| 0; 3 |] [| [||]; [||] |])

let test_batch_duplicates () =
  let g = Graph.snapshot (Generators.torus 4 4) in
  let rows = Bfs_batch.run g [| 3; 3; 3 |] in
  let d = Bfs.distances g 3 in
  Array.iter (fun row -> check Alcotest.(array int) "duplicated source rows" d row) rows

let test_batches_cover () =
  check Alcotest.int "empty" 0 (Array.length (Bfs_batch.batches 0));
  List.iter
    (fun n ->
      let bs = Bfs_batch.batches n in
      let seen = Array.concat (Array.to_list bs) in
      check Alcotest.bool "consecutive cover" true (seen = Array.init n (fun i -> i));
      Array.iter
        (fun b -> check Alcotest.bool "batch size" true (Array.length b <= Bfs_batch.width))
        bs)
    [ 1; Bfs_batch.width; Bfs_batch.width + 1; 200 ]

let prop_batch_matches_scalar =
  QCheck.Test.make ~name:"batched BFS rows = scalar distances" ~count:60
    QCheck.(triple small_int (int_range 2 60) (int_range 0 100))
    (fun (seed, n, pct) ->
      (* pct sweeps from almost surely disconnected to dense *)
      let g = Graph.snapshot (random_graph seed n (float_of_int pct /. 100.0 *. 0.2)) in
      let k = 1 + (seed mod min n Bfs_batch.width) in
      let sources = Array.init k (fun i -> (seed + (i * 7)) mod n) in
      let rows = Bfs_batch.run g sources in
      Array.for_all2 (fun row s -> row = Bfs.distances g s) rows sources)

let prop_batch_bounded_matches_scalar =
  QCheck.Test.make ~name:"bounded batched BFS = scalar bounded distances" ~count:60
    QCheck.(triple small_int (int_range 2 60) (int_range 0 5))
    (fun (seed, n, bound) ->
      let g = Graph.snapshot (random_graph seed n 0.08) in
      let k = 1 + (seed mod min n Bfs_batch.width) in
      let sources = Array.init k (fun i -> (seed + (i * 3)) mod n) in
      let rows = Bfs_batch.run ~bound g sources in
      Array.for_all2 (fun row s -> row = Bfs.distances_bounded g s ~bound) rows sources)

let prop_all_distances_matches_scalar =
  QCheck.Test.make ~name:"all_distances(_parallel) = per-source scalar BFS" ~count:30
    QCheck.(pair small_int (int_range 1 80))
    (fun (seed, n) ->
      let g = Graph.snapshot (random_graph seed n 0.1) in
      let want = Array.init n (Bfs.distances g) in
      Bfs.all_distances g = want && Bfs.all_distances_parallel ~domains:3 g = want)

(* ---- Bfs_batch.to_targets: distances at the targets only ---- *)

(* a random graph, optionally left with an uncommitted delta (removed and
   added edges) read through a cache-bypassing CSR *)
let kernel_input seed n ~delta =
  let g = random_graph seed n 0.12 in
  if not delta then Graph.snapshot g
  else begin
    let rng = Prng.create (seed + 31) in
    Graph.iter_edges (Graph.copy g) (fun u v ->
        if Prng.bool rng 0.2 then ignore (Graph.remove_edge g u v));
    for _ = 1 to n / 4 do
      ignore (Graph.add_edge g (Prng.int rng n) (Prng.int rng n))
    done;
    Graph.to_csr g
  end

(* [k] random sources (duplicates likely) with 0 to 8 targets each,
   duplicates allowed, the source itself sometimes among them *)
let random_batch rng n =
  let k = 1 + Prng.int rng (min Bfs_batch.width (2 * n)) in
  let sources = Array.init k (fun _ -> Prng.int rng n) in
  let targets =
    Array.map
      (fun src ->
        Array.init (Prng.int rng 9) (fun _ -> if Prng.bool rng 0.2 then src else Prng.int rng n))
      sources
  in
  (sources, targets)

(* the rows a fresh scalar run gives at each target *)
let fresh_rows scalar sources targets =
  Array.map2
    (fun src ts ->
      let d = scalar src in
      Array.map (fun v -> d.(v)) ts)
    sources targets

let prop_targets_match_scalar =
  QCheck.Test.make ~name:"target distances = scalar bounded distances at each target"
    ~count:80
    QCheck.(quad small_int (int_range 1 60) (int_range 0 3) bool)
    (fun (seed, n, b, delta) ->
      let bound = [| 0; 1; 3; max_int |].(b) in
      let c = kernel_input seed n ~delta in
      let sources, targets = random_batch (Prng.create (seed + 7)) n in
      Bfs_batch.to_targets ~bound c sources targets
      = fresh_rows (fun src -> Bfs.distances_bounded c src ~bound) sources targets)

(* a random graph whose edges weigh 1 .. [w_max], one of them exactly
   [w_max] (so the snapshot's ring has min (w_max, bound) slots), optionally
   left with an uncommitted delta read through a cache-bypassing CSR *)
let weighted_input seed n ~w_max ~delta =
  let rng = Prng.create seed in
  let g = Graph.create n in
  let weight () = 1 + Prng.int rng w_max in
  if n > 1 then ignore (Graph.add_edge ~weight:w_max g 0 (n - 1));
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.bool rng 0.12 then ignore (Graph.add_edge ~weight:(weight ()) g u v)
    done
  done;
  if not delta then Graph.snapshot g
  else begin
    Graph.iter_edges (Graph.copy g) (fun u v ->
        if Prng.bool rng 0.2 then ignore (Graph.remove_edge g u v));
    for _ = 1 to n / 4 do
      ignore (Graph.add_edge ~weight:(weight ()) g (Prng.int rng n) (Prng.int rng n))
    done;
    Graph.to_csr g
  end

let prop_weighted_targets_match_dijkstra =
  QCheck.Test.make ~name:"weighted target distances = Dijkstra bounded distances" ~count:120
    QCheck.(quad small_int (int_range 1 60) (pair (int_range 0 4) (int_range 0 4)) bool)
    (fun (seed, n, (wi, bi), delta) ->
      let w_max = [| 1; 2; 3; 8; 16 |].(wi) and bound = [| 0; 1; 3; 24; max_int |].(bi) in
      let c = weighted_input seed n ~w_max ~delta in
      let sources, targets = random_batch (Prng.create (seed + 7)) n in
      Bfs_batch.to_targets ~bound c sources targets
      = fresh_rows (fun src -> Dijkstra.distances_bounded c src ~bound) sources targets)

let prop_run_measures_hops =
  QCheck.Test.make ~name:"run on a weighted snapshot = hop distances" ~count:40
    QCheck.(triple small_int (int_range 1 50) (int_range 0 4))
    (fun (seed, n, wi) ->
      let c = weighted_input seed n ~w_max:[| 2; 3; 8; 16; 1000 |].(wi) ~delta:false in
      let sources = Array.init (1 + (seed mod min n Bfs_batch.width)) (fun i -> (seed + i) mod n) in
      let rows = Bfs_batch.run c sources in
      Array.for_all2 (fun row s -> row = Bfs.distances c s) rows sources)

let test_ring_max () =
  (* a ring of min (max_weight, bound) slots: 17 is one too many *)
  let g = Generators.path 6 in
  ignore (Graph.add_edge ~weight:(Bfs_batch.ring_max + 1) g 0 5);
  let c = Graph.snapshot g in
  let sweep bound = Bfs_batch.to_targets ~bound c [| 0 |] [| [| 5 |] |] in
  check Alcotest.(array (array int)) "16 slots run" [| [| 5 |] |] (sweep Bfs_batch.ring_max);
  List.iter
    (fun bound ->
      check Alcotest.bool
        (Printf.sprintf "bound %d raises" bound)
        true
        (try
           ignore (sweep bound);
           false
         with Invalid_argument _ -> true))
    [ Bfs_batch.ring_max + 1; max_int ]

let with_metrics f =
  Metrics.reset ();
  Obs.set_metrics true;
  Fun.protect ~finally:(fun () -> Obs.set_metrics false) f

let test_targets_early_exit () =
  (* on a path, the source aiming one hop away stops at level 1 while its
     twin aiming at the far end runs on: 2 + 16 discoveries, not the 2 x 20
     of two full sweeps *)
  let c = Graph.snapshot (Generators.path 20) in
  with_metrics (fun () ->
      let d = Bfs_batch.to_targets c [| 0; 0 |] [| [| 1 |]; [| 15 |] |] in
      check Alcotest.(array (array int)) "near and far" [| [| 1 |]; [| 15 |] |] d;
      check Alcotest.int "discoveries" 18
        (Metrics.counter_value (Metrics.counter "bfs.nodes_visited")));
  (* a source with nothing left to find never expands *)
  with_metrics (fun () ->
      let d = Bfs_batch.to_targets c [| 4; 9 |] [| [| 4; 4 |]; [||] |] in
      check Alcotest.(array (array int)) "self targets" [| [| 0; 0 |]; [||] |] d;
      check Alcotest.int "sources only" 2
        (Metrics.counter_value (Metrics.counter "bfs.nodes_visited")))

(* Back-to-back sweeps on graphs of different n, each stopped by its
   bound, its targets or an exhausted frontier, must leave the arena clean:
   every result equals a fresh [scalar] run — sequentially, again, and on
   two domains.  Each [(seed, c)] is swept at [bound] and unbounded, from
   random sources with three random targets each. *)
let check_clean_arena scalar ~bound graphs =
  let cases =
    List.concat_map
      (fun (seed, c) ->
        let n = Csr.n c in
        let rng = Prng.create seed in
        let sources = Array.init (min n Bfs_batch.width) (fun _ -> Prng.int rng n) in
        let targets = Array.map (fun _ -> Array.init 3 (fun _ -> Prng.int rng n)) sources in
        [ (c, sources, targets, bound); (c, sources, targets, max_int) ])
      graphs
  in
  let run (c, sources, targets, bound) = Bfs_batch.to_targets ~bound c sources targets in
  let fresh (c, sources, targets, bound) =
    fresh_rows (fun src -> scalar c src ~bound) sources targets
  in
  let want = List.map fresh cases in
  check Alcotest.bool "sequential" true (List.map run cases = want);
  check Alcotest.bool "sequential, again" true (List.map run cases = want);
  let arr = Array.of_list cases in
  let par = Parallel.map_range ~domains:2 (Array.length arr) (fun i -> run arr.(i)) in
  check Alcotest.bool "two domains" true (Array.to_list par = want)

let test_arena_hygiene () =
  check_clean_arena Bfs.distances_bounded ~bound:1
    (List.map
       (fun (seed, n) -> (seed, Graph.snapshot (random_graph seed n 0.1)))
       [ (1, 90); (2, 7); (3, 150); (4, 30); (5, 120) ])

let test_weighted_arena_hygiene () =
  (* unit sweeps and rings of 1, 3, 8 and 16 slots, interleaved *)
  let graphs =
    List.map
      (fun (seed, n, w_max) -> (seed, weighted_input seed n ~w_max ~delta:false))
      [ (1, 90, 1); (2, 7, 3); (3, 150, 8); (4, 30, 16); (5, 120, 1); (6, 60, 16); (7, 40, 3) ]
  in
  check
    Alcotest.(list int)
    "ring sizes" [ 1; 3; 8; 16; 1; 16; 3 ]
    (List.map (fun (_, c) -> Csr.max_weight c) graphs);
  check_clean_arena Dijkstra.distances_bounded ~bound:3 graphs

(* the batch kernel's words on the stretch-3 certificate of Algorithm 1 on
   a circulant with offsets 1..12 *)
let certificate_words n =
  let g = Generators.circulant n (List.init 12 (fun i -> i + 1)) in
  let h = (Regular_dc.build (Prng.create 5) g).Regular_dc.spanner in
  with_metrics (fun () ->
      let s = Stretch.exact_bounded g h ~bound:3 in
      check Alcotest.bool "certified" true (s <= 3);
      Metrics.counter_value (Metrics.counter "bfs_batch.words"))

let test_words_output_sensitive () =
  (* doubling n doubles the removed edges, so an output-sensitive
     certificate does about twice the work; a sweep that scans all n nodes
     per level grows quadratically *)
  let w4 = certificate_words 4096 and w8 = certificate_words 8192 in
  let ratio = float_of_int w8 /. float_of_int w4 in
  check Alcotest.bool
    (Printf.sprintf "words grow %.2fx (%d -> %d), at most 2.2x" ratio w4 w8)
    true (ratio <= 2.2)

(* ---- Stretch certification vs the per-edge reference ---- *)

let prop_exact_matches_reference =
  QCheck.Test.make ~name:"grouped+batched Stretch.exact = per-edge reference" ~count:50
    QCheck.(triple small_int (int_range 2 50) (int_range 0 100))
    (fun (seed, n, keep_pct) ->
      let g = random_graph (seed + 1) n 0.15 in
      let h = random_subgraph (seed + 2) (float_of_int keep_pct /. 100.0) g in
      let want = Stretch.exact_reference g h in
      Stretch.exact g h = want
      && Stretch.exact_parallel ~domains:4 g h = want
      && Stretch.exact ~snapshot:(Graph.snapshot h) g h = want)

let prop_exact_bounded_matches_reference =
  QCheck.Test.make ~name:"bounded certification = bounded reference" ~count:50
    QCheck.(triple small_int (int_range 2 50) (int_range 0 6))
    (fun (seed, n, bound) ->
      let bound = max 1 bound in
      let g = random_graph (seed + 1) n 0.15 in
      let h = random_subgraph (seed + 5) 0.6 g in
      let want = Stretch.exact_reference ~bound g h in
      Stretch.exact_bounded g h ~bound = want
      && Stretch.exact_parallel ~domains:3 ~bound g h = want)

let prop_violations_consistent =
  QCheck.Test.make ~name:"violations = removed edges beyond the bound, sorted" ~count:40
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let g = random_graph (seed + 1) n 0.2 in
      let h = random_subgraph (seed + 9) 0.5 g in
      let bound = 3 in
      let hc = Graph.snapshot h in
      let want = ref [] in
      Graph.iter_edges g (fun u v ->
          if not (Graph.mem_edge h u v) then begin
            let d = Bfs.distance hc u v in
            if d < 0 || d > bound then want := (u, v) :: !want
          end);
      Stretch.violations g h ~bound = List.sort compare !want)

let test_stretch_spanner_pair () =
  (* a real construction: certificates identical across the kernels *)
  let g = Generators.random_regular (Prng.create 5) 80 16 in
  let h = Classic.greedy g ~k:2 in
  let want = Stretch.exact_reference g h in
  check Alcotest.int "exact" want (Stretch.exact g h);
  check Alcotest.int "parallel" want (Stretch.exact_parallel ~domains:4 g h)

let test_exact_disconnected_early_exit () =
  let g = Generators.cycle 12 in
  let h = Graph.create 12 in
  check Alcotest.int "exact = max_int" max_int (Stretch.exact g h);
  check Alcotest.int "parallel = max_int" max_int (Stretch.exact_parallel ~domains:4 g h);
  check Alcotest.int "reference = max_int" max_int (Stretch.exact_reference g h)

let prop_sampled_pairs_snapshot_invariant =
  QCheck.Test.make ~name:"sampled_pairs draws are snapshot-invariant" ~count:20
    QCheck.(pair small_int (int_range 2 40))
    (fun (seed, n) ->
      let g = random_graph (seed + 1) n 0.2 in
      let h = random_subgraph (seed + 3) 0.7 g in
      let a = Stretch.sampled_pairs (Prng.create seed) g h ~samples:50 in
      let b =
        Stretch.sampled_pairs
          ~snapshots:(Graph.snapshot g, Graph.snapshot h)
          (Prng.create seed) g h ~samples:50
      in
      a = b)

(* ---- disconnection signalling ---- *)

let test_eccentricity_signals () =
  let c = Graph.snapshot (Generators.path 6) in
  check Alcotest.int "path end" 5 (Bfs.eccentricity c 0);
  let g = Generators.path 6 in
  ignore (Graph.isolate g 5);
  let c = Graph.snapshot g in
  check Alcotest.int "disconnected = max_int" max_int (Bfs.eccentricity c 0)

let test_diameter_signals () =
  let c = Graph.snapshot (Generators.cycle 9) in
  check Alcotest.int "cycle diameter" 4 (Bfs.diameter_sampled c (Prng.create 1) ~samples:20);
  let g = Generators.cycle 9 in
  ignore (Graph.isolate g 0);
  let c = Graph.snapshot g in
  check Alcotest.int "disconnected = max_int" max_int
    (Bfs.diameter_sampled c (Prng.create 1) ~samples:20)

(* ---- Parallel.max_range_saturating ---- *)

let prop_saturating_matches_max =
  QCheck.Test.make ~name:"max_range_saturating = max_range at top saturate" ~count:80
    QCheck.(pair (int_range 0 200) (int_range 1 4))
    (fun (n, domains) ->
      let f i = (i * 37) mod 101 in
      Parallel.max_range_saturating ~domains n f ~saturate:max_int
      = Parallel.max_range ~domains n f)

let test_saturating_early_exit () =
  (* once the saturation value is seen the remaining indices may be skipped,
     but the result must still include it *)
  let hits = Atomic.make 0 in
  let f i =
    Atomic.incr hits;
    if i = 3 then 1000 else i
  in
  let r = Parallel.max_range_saturating ~domains:1 100 f ~saturate:1000 in
  check Alcotest.int "saturated max" 1000 r;
  check Alcotest.bool "skipped the tail" true (Atomic.get hits <= 10);
  check Alcotest.int "empty range" min_int
    (Parallel.max_range_saturating ~domains:2 0 (fun i -> i) ~saturate:5)

(* ---- scratch arenas ---- *)

let test_scratch_resizes () =
  (* growing then shrinking the graph exercises realloc and reuse paths *)
  List.iter
    (fun n ->
      let c = Graph.snapshot (Generators.cycle n) in
      check Alcotest.int "cycle distance" (n / 2) (Bfs.distance c 0 (n / 2)))
    [ 4; 64; 8; 128; 6 ]

(* ---- unsafe-site oracles ----

   bfs_batch.ml, bitmat.ml and csr.ml are the only modules allowed to use
   Array.unsafe_* (enforced by dcs_lint's unsafe-audit pass); every site
   carries a (* SAFETY: ... *) argument.  These properties back those
   arguments with an independent, fully bounds-checked oracle written
   against the plain Graph API — on random graphs including empty,
   singleton and disconnected inputs. *)

(* queue-based BFS over Graph adjacency: no CSR, no bit-packing, no unsafe *)
let oracle_distances g src =
  let n = Graph.n g in
  let dist = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    Graph.iter_neighbors g u (fun v ->
        if dist.(v) < 0 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v queue
        end)
  done;
  dist

let oracle_common_count g u z =
  let acc = ref 0 in
  Graph.iter_neighbors g u (fun w -> if Graph.mem_edge g z w then incr acc);
  !acc

let prop_batch_matches_oracle =
  QCheck.Test.make ~name:"batched BFS rows = bounds-checked oracle" ~count:60
    QCheck.(triple small_int (int_range 1 40) (int_range 0 100))
    (fun (seed, n, pct) ->
      (* pct near 0 gives empty-edge/disconnected graphs, near 100 dense *)
      let g = random_graph seed n (float_of_int pct /. 100.0 *. 0.25) in
      let c = Graph.snapshot g in
      let k = 1 + (seed mod min n Bfs_batch.width) in
      let sources = Array.init k (fun i -> (seed + (i * 11)) mod n) in
      let rows = Bfs_batch.run c sources in
      Array.for_all2 (fun row s -> row = oracle_distances g s) rows sources)

let prop_bitmat_matches_oracle =
  QCheck.Test.make ~name:"Bitmat = bounds-checked neighbor-set oracle" ~count:60
    QCheck.(triple small_int (int_range 1 40) (int_range 0 100))
    (fun (seed, n, pct) ->
      let g = random_graph seed n (float_of_int pct /. 100.0 *. 0.25) in
      let bm = Bitmat.of_graph g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for z = 0 to n - 1 do
          let oracle = oracle_common_count g u z in
          if Bitmat.common_count bm u z <> oracle then ok := false;
          if Bitmat.mem bm u z <> Graph.mem_edge g u z then ok := false;
          (* at_least must agree with the exact count at, below and above
             the threshold (and for the k <= 0 shortcut) *)
          List.iter
            (fun k ->
              if Bitmat.common_count_at_least bm u z k <> (oracle >= k) then ok := false)
            [ -1; 0; oracle; oracle + 1 ]
        done
      done;
      !ok)

let test_unsafe_degenerate_inputs () =
  (* empty graph: no sources to run, nothing to intersect *)
  let empty = Graph.snapshot (Graph.create 0) in
  check Alcotest.int "empty graph, no rows" 0 (Array.length (Bfs_batch.run empty [||]));
  let bm0 = Bitmat.of_graph (Graph.create 0) in
  ignore bm0;
  (* singleton: one node, no edges *)
  let one = Graph.create 1 in
  let rows = Bfs_batch.run (Graph.snapshot one) [| 0 |] in
  check Alcotest.(array (array int)) "singleton distances" [| [| 0 |] |] rows;
  let bm1 = Bitmat.of_graph one in
  check Alcotest.int "singleton common" 0 (Bitmat.common_count bm1 0 0);
  check Alcotest.bool "singleton mem" false (Bitmat.mem bm1 0 0);
  (* disconnected: two components, cross distances signal -1 *)
  let g = Generators.two_cliques_matching 8 in
  let h = Graph.create (Graph.n g) in
  Graph.iter_edges g (fun u v -> if u < 4 && v < 4 then ignore (Graph.add_edge h u v));
  let rows = Bfs_batch.run (Graph.snapshot h) [| 0; 5 |] in
  check Alcotest.(array int) "cross component -1" (oracle_distances h 0) rows.(0);
  check Alcotest.(array int) "isolated source" (oracle_distances h 5) rows.(1)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "kernels"
    [
      ( "bfs-batch",
        Alcotest.test_case "empty/invalid" `Quick test_batch_empty_and_invalid
        :: Alcotest.test_case "duplicate sources" `Quick test_batch_duplicates
        :: Alcotest.test_case "batches cover" `Quick test_batches_cover
        :: q
             [
               prop_batch_matches_scalar;
               prop_batch_bounded_matches_scalar;
               prop_all_distances_matches_scalar;
             ] );
      ( "bfs-targets",
        Alcotest.test_case "early exit" `Quick test_targets_early_exit
        :: Alcotest.test_case "arena hygiene" `Quick test_arena_hygiene
        :: Alcotest.test_case "words output-sensitive" `Quick test_words_output_sensitive
        :: q [ prop_targets_match_scalar; prop_weighted_targets_match_dijkstra; prop_run_measures_hops ]
        @ [
            Alcotest.test_case "weighted arena hygiene" `Quick test_weighted_arena_hygiene;
            Alcotest.test_case "ring_max" `Quick test_ring_max;
          ] );
      ( "stretch",
        Alcotest.test_case "spanner pair" `Quick test_stretch_spanner_pair
        :: Alcotest.test_case "disconnected" `Quick test_exact_disconnected_early_exit
        :: q
             [
               prop_exact_matches_reference;
               prop_exact_bounded_matches_reference;
               prop_violations_consistent;
               prop_sampled_pairs_snapshot_invariant;
             ] );
      ( "signalling",
        [
          Alcotest.test_case "eccentricity" `Quick test_eccentricity_signals;
          Alcotest.test_case "diameter" `Quick test_diameter_signals;
        ] );
      ( "parallel",
        Alcotest.test_case "early exit" `Quick test_saturating_early_exit
        :: q [ prop_saturating_matches_max ] );
      ("scratch", [ Alcotest.test_case "resizes" `Quick test_scratch_resizes ]);
      ( "unsafe-oracles",
        Alcotest.test_case "degenerate inputs" `Quick test_unsafe_degenerate_inputs
        :: q [ prop_batch_matches_oracle; prop_bitmat_matches_oracle ] );
    ]
