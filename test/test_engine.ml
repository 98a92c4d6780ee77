(* Graph-engine tests: the Bigarray CSR store (Csr), the delta-log
   mutation path behind Graph.snapshot, the streaming expander generator,
   and the Elkin–Neiman near-linear-time spanner.

   The central property is the oracle: a CSR built from an edge stream must
   be element-for-element identical to a naive per-node sorted-list model,
   for any interleaving of add_edge / remove_edge / isolate — both through
   the pure [Graph.to_csr] path and the committing [Graph.snapshot] path,
   which must also equal each other, and every read of a graph must return
   the rows of that store whatever the graph's commit history. *)

let check = Alcotest.check

(* ---- naive reference model: per-node sorted neighbor lists ---- *)

type model = { mn : int; tbl : (int * int, unit) Hashtbl.t }

let model_create n = { mn = n; tbl = Hashtbl.create 64 }

let model_add md u v =
  if u <> v then Hashtbl.replace md.tbl (min u v, max u v) ()

let model_remove md u v = Hashtbl.remove md.tbl (min u v, max u v)

let model_isolate md v =
  Hashtbl.iter
    (fun (a, b) () -> if a = v || b = v then Hashtbl.remove md.tbl (a, b))
    (Hashtbl.copy md.tbl)

(* expected flat arrays, exactly the canonical CSR layout *)
let model_arrays md =
  let adj = Array.make (max 1 md.mn) [] in
  Hashtbl.iter
    (fun (a, b) () ->
      adj.(a) <- b :: adj.(a);
      adj.(b) <- a :: adj.(b))
    md.tbl;
  let xadj = Array.make (md.mn + 1) 0 in
  for v = 0 to md.mn - 1 do
    adj.(v) <- List.sort compare adj.(v);
    xadj.(v + 1) <- xadj.(v) + List.length adj.(v)
  done;
  let adjncy = Array.make xadj.(md.mn) 0 in
  for v = 0 to md.mn - 1 do
    List.iteri (fun i w -> adjncy.(xadj.(v) + i) <- w) adj.(v)
  done;
  (xadj, adjncy)

(* element-for-element comparison of a Csr.t against the model arrays *)
let csr_matches_model md (c : Csr.t) =
  let xadj, adjncy = model_arrays md in
  Csr.n c = md.mn
  && Bigarray.Array1.dim c.Csr.xadj = Array.length xadj
  && Bigarray.Array1.dim c.Csr.adjncy = Array.length adjncy
  &&
  let ok = ref true in
  Array.iteri (fun i x -> if c.Csr.xadj.{i} <> x then ok := false) xadj;
  Array.iteri (fun i x -> if c.Csr.adjncy.{i} <> x then ok := false) adjncy;
  !ok

(* ---- Csr unit behavior ---- *)

let test_store_basic () =
  let c =
    Csr.of_stream ~n:5 (fun emit ->
        emit 0 1;
        emit 1 0;
        (* duplicate, reversed orientation *)
        emit 3 3;
        (* self-loop: dropped *)
        emit 4 2;
        emit 0 1;
        (* duplicate, same orientation *)
        emit 1 2)
  in
  check Alcotest.int "n" 5 (Csr.n c);
  check Alcotest.int "m" 3 (Csr.m c);
  check Alcotest.int "arcs" 6 (Bigarray.Array1.dim c.Csr.adjncy);
  check Alcotest.int "degree 1" 2 (Csr.degree c 1);
  check Alcotest.int "degree 3" 0 (Csr.degree c 3);
  check Alcotest.bool "mem 2 4" true (Csr.mem_edge c 2 4);
  check Alcotest.bool "mem 0 2" false (Csr.mem_edge c 0 2);
  let row = ref [] in
  Csr.iter_neighbors c 2 (fun w -> row := w :: !row);
  check Alcotest.(list int) "row 2 sorted" [ 1; 4 ] (List.rev !row);
  let edges = ref [] in
  Csr.iter_edges c (fun u v -> edges := (u, v) :: !edges);
  check
    Alcotest.(list (pair int int))
    "edges ascending" [ (0, 1); (1, 2); (2, 4) ] (List.rev !edges)

let test_store_empty_and_invalid () =
  let e = Csr.empty 4 in
  check Alcotest.int "empty m" 0 (Csr.m e);
  check Alcotest.int "empty degree" 0 (Csr.degree e 3);
  let expects_invalid name f =
    check Alcotest.bool name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  expects_invalid "endpoint too large" (fun () ->
      Csr.of_stream ~n:3 (fun emit -> emit 0 3));
  expects_invalid "negative endpoint" (fun () ->
      Csr.of_stream ~n:3 (fun emit -> emit (-1) 2));
  expects_invalid "degree out of range" (fun () -> Csr.degree e 4)

let test_store_canonical () =
  (* same edge set, wildly different emit orders -> identical arrays *)
  let edges = [ (0, 9); (3, 4); (1, 2); (5, 8); (2, 7); (0, 3) ] in
  let build order =
    Csr.of_stream ~n:10 (fun emit ->
        List.iter (fun (u, v) -> emit u v) order)
  in
  let a = build edges in
  let b =
    build (List.rev_map (fun (u, v) -> (v, u)) edges @ [ (1, 2); (9, 0) ])
  in
  check Alcotest.bool "canonical xadj" true (a.Csr.xadj = b.Csr.xadj);
  check Alcotest.bool "canonical adjncy" true
    (a.Csr.adjncy = b.Csr.adjncy)

(* ---- qcheck oracle: the two stream builders = a min-wins model ---- *)

(* A random arc stream on n = 0..40 nodes: each drawn arc, then (by its
   flag) the same edge re-emitted reversed at another weight, or a
   self-loop; the whole stream is shuffled by [seed]. *)
let arc_stream (n, arcs, seed) =
  if n = 0 then [||]
  else begin
    let es =
      Array.of_list
        (List.concat_map
           (fun (a, b, w, flag) ->
             let u = a mod n and v = b mod n in
             (u, v, w)
             :: (match flag mod 4 with
                | 0 -> [ (v, u, 1 + ((w + flag) mod 9)) ]
                | 1 -> [ (u, u, w) ]
                | _ -> []))
           arcs)
    in
    let st = Random.State.make [| seed |] in
    for i = Array.length es - 1 downto 1 do
      let j = Random.State.int st (i + 1) in
      let t = es.(i) in
      es.(i) <- es.(j);
      es.(j) <- t
    done;
    es
  end

(* rows of the stream's edge set with the lightest weight per edge,
   ascending: the canonical (xadj, adjncy, weights) and the heaviest
   surviving weight *)
let min_wins_model n es =
  let best = Hashtbl.create 64 in
  Array.iter
    (fun (u, v, w) ->
      if u <> v then
        let k = (min u v, max u v) in
        match Hashtbl.find_opt best k with
        | Some w' when w' <= w -> ()
        | _ -> Hashtbl.replace best k w)
    es;
  let rows = Array.make n [] in
  Hashtbl.iter
    (fun (u, v) w ->
      rows.(u) <- (v, w) :: rows.(u);
      rows.(v) <- (u, w) :: rows.(v))
    best;
  let arcs = List.concat_map (fun r -> List.sort compare r) (Array.to_list rows) in
  let xadj = Array.make (n + 1) 0 in
  Array.iteri (fun v r -> xadj.(v + 1) <- xadj.(v) + List.length r) rows;
  ( xadj,
    Array.of_list (List.map fst arcs),
    Array.of_list (List.map snd arcs),
    Hashtbl.fold (fun _ w acc -> max w acc) best 1 )

let ints (b : Csr.ba) = Array.init (Bigarray.Array1.dim b) (fun i -> b.{i})

let prop_stream_builders =
  QCheck.Test.make ~name:"stream builders: unit = weighted at weight 1; weighted = min-wins model"
    ~count:300
    QCheck.(
      triple (int_range 0 40)
        (small_list (quad small_nat small_nat (int_range 1 9) small_nat))
        int)
    (fun ((n, _, _) as input) ->
      let es = arc_stream input in
      let unit = Csr.of_stream ~n (fun emit -> Array.iter (fun (u, v, _) -> emit u v) es) in
      let ones =
        Csr.of_weighted_stream ~n (fun emit -> Array.iter (fun (u, v, _) -> emit u v 1) es)
      in
      let weighted =
        Csr.of_weighted_stream ~n (fun emit -> Array.iter (fun (u, v, w) -> emit u v w) es)
      in
      let xadj, adjncy, weights, heaviest = min_wins_model n es in
      unit.Csr.weights = None
      && Csr.max_weight unit = 1
      && ints ones.Csr.xadj = ints unit.Csr.xadj
      && ints ones.Csr.adjncy = ints unit.Csr.adjncy
      && Csr.max_weight ones = 1
      && ints unit.Csr.xadj = xadj
      && ints unit.Csr.adjncy = adjncy
      && ints weighted.Csr.xadj = xadj
      && ints weighted.Csr.adjncy = adjncy
      && (match weighted.Csr.weights with Some w -> ints w = weights | None -> false)
      && Csr.max_weight weighted = heaviest)

(* ---- qcheck oracle: CSR = model under interleaved mutation ---- *)

(* op stream encoded as (kind, a, b): 0 = add, 1 = remove, 2 = isolate *)
let apply_ops n ops =
  let g = Graph.create n in
  let md = model_create n in
  List.iter
    (fun (kind, a, b) ->
      let u = a mod n and v = b mod n in
      match kind mod 3 with
      | 0 ->
          ignore (Graph.add_edge g u v);
          model_add md u v
      | 1 ->
          ignore (Graph.remove_edge g u v);
          model_remove md u v
      | _ ->
          ignore (Graph.isolate g u);
          model_isolate md u)
    ops;
  (g, md)

let prop_csr_matches_model =
  QCheck.Test.make ~name:"CSR from mutation stream = sorted-list model"
    ~count:120
    QCheck.(
      triple (int_range 1 40)
        (small_list (triple small_nat small_nat small_nat))
        small_nat)
    (fun (n, ops, extra) ->
      let ops = List.map (fun (k, a, b) -> (k, a, b)) ops in
      let g, md = apply_ops n ops in
      (* to_csr: counting-sort rebuild; snapshot: commit + cache *)
      let pure = Graph.to_csr g in
      let snap = Graph.snapshot g in
      let ok1 = csr_matches_model md pure && csr_matches_model md snap in
      (* mutate again after the snapshot to exercise cache invalidation *)
      let u = extra mod n in
      ignore (Graph.add_edge g u ((u + 1) mod n));
      model_add md u ((u + 1) mod n);
      let ok2 = csr_matches_model md (Graph.snapshot g) in
      ok1 && ok2)

let prop_snapshot_accessors_match_graph =
  QCheck.Test.make ~name:"snapshot m/degree/mem agree with Graph" ~count:80
    QCheck.(
      pair (int_range 1 30) (small_list (triple small_nat small_nat small_nat)))
    (fun (n, ops) ->
      let g, _ = apply_ops n ops in
      let c = Graph.snapshot g in
      Csr.m c = Graph.m g
      && Seq.for_all
           (fun v ->
             Csr.degree c v = Graph.degree g v
             && Seq.for_all
                  (fun w -> Csr.mem_edge c v w = Graph.mem_edge g v w)
                  (Seq.init n Fun.id))
           (Seq.init n Fun.id))

(* ---- start graphs for the mutation properties ---- *)

(* the start graph, by [src]: empty, a committed unit, weighted or
   unit-weighted store, or a random_regular graph as generated, which
   carries the switch repair's pending deletions.  The weighted store is
   mostly unit weights, so removals can leave it unweighted; its weights are
   fixed per pair, so duplicate emits agree, and (0, 1) is always heavy.
   The unit-weighted store carries a lane of 1s, which adoption drops. *)
let commit_start src n seed =
  let weight u v = if (u + v) mod 4 = 1 then 2 + (u * v mod 3) else 1 in
  let edges emit =
    emit 0 1 (weight 0 1);
    let st = Random.State.make [| seed |] in
    for _ = 1 to 2 * n do
      let u = Random.State.int st n and v = Random.State.int st n in
      emit u v (weight u v)
    done
  in
  match src mod 5 with
  | 0 -> Graph.create n
  | 1 -> Graph.of_csr (Csr.of_stream ~n (fun emit -> edges (fun u v _ -> emit u v)))
  | 2 -> Graph.of_csr (Csr.of_weighted_stream ~n edges)
  | 3 -> Graph.of_csr (Csr.of_weighted_stream ~n (fun emit -> edges (fun u v _ -> emit u v 1)))
  | _ ->
      let n = 2 * (8 + (n mod 17)) in
      Generators.random_regular (Prng.create seed) n (4 + (seed mod 7))

(* ---- every read is a row of the canonical store ---- *)

let collect iter =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc);
  List.rev !acc

(* every read of [g] against the rows of [c], a [Graph.to_csr]: rows read
   ascending whatever the commit history *)
let reads_match g (c : Csr.t) =
  let edges = collect (fun f -> Csr.iter_edges_w c (fun u v w -> f (u, v, w))) in
  let pairs = List.map (fun (u, v, _) -> (u, v)) edges in
  Seq.for_all
    (fun v ->
      let row = collect (fun f -> Csr.iter_neighbors_w c v (fun u w -> f (u, w))) in
      let nbrs = List.map fst row in
      collect (fun f -> Graph.iter_neighbors_w g v (fun u w -> f (u, w))) = row
      && collect (Graph.iter_neighbors g v) = nbrs
      && Graph.neighbors g v = List.rev nbrs
      && Graph.fold_neighbors g v (fun acc u -> u :: acc) [] = List.rev nbrs
      && Graph.degree g v = List.length row)
    (Seq.init (Graph.n g) Fun.id)
  && Csr.n c = Graph.n g
  && collect (fun f -> Graph.iter_edges_w g (fun u v w -> f (u, v, w))) = edges
  && collect (fun f -> Graph.iter_edges g (fun u v -> f (u, v))) = pairs
  && Graph.edges g = List.rev pairs
  && Array.to_list (Graph.edge_array g) = pairs

(* ops as (kind, a, b): add, remove, resurrect at the same or at another
   weight, copy (the original is frozen with its rows and re-checked at the
   end), snapshot, and a burst of 40 adds and removes that can reach the
   automatic commit *)
let prop_reads_are_rows =
  QCheck.Test.make ~name:"every read = Graph.to_csr rows" ~count:150
    QCheck.(
      quad (int_range 0 4) (int_range 2 24) small_nat
        (small_list (triple small_nat small_nat small_nat)))
    (fun (src, n, seed, ops) ->
      let g = ref (commit_start src n seed) in
      let n = Graph.n !g in
      let frozen = ref [] and ok = ref (reads_match !g (Graph.to_csr !g)) in
      let add u v w = ignore (Graph.add_edge ~weight:w !g u v) in
      let remove u v = ignore (Graph.remove_edge !g u v) in
      List.iter
        (fun (kind, a, b) ->
          let u = a mod n and v = b mod n and w = 1 + (kind / 8 mod 3) in
          (match kind mod 8 with
          | 0 | 1 -> add u v w
          | 2 -> remove u v
          | 3 | 4 ->
              if Graph.mem_edge !g u v then begin
                let w0 = Graph.edge_weight !g u v in
                remove u v;
                add u v (if kind mod 8 = 3 then w0 else 1 + (w0 mod 3))
              end
          | 5 ->
              frozen := (!g, Graph.to_csr !g) :: !frozen;
              g := Graph.copy !g
          | 6 -> ignore (Graph.snapshot !g)
          | _ ->
              for i = 0 to 39 do
                let x = (u + i) mod n and y = (v + (3 * i) + 1) mod n in
                if i mod 3 = 2 then remove x y else add x y (1 + (i mod 2))
              done);
          if not (reads_match !g (Graph.to_csr !g)) then ok := false)
        ops;
      !ok && List.for_all (fun (g, c) -> reads_match g c) !frozen)

(* ---- qcheck oracle: a commit = a fresh counting-sort build ---- *)

let same_store (a : Csr.t) (b : Csr.t) =
  ints a.Csr.xadj = ints b.Csr.xadj
  && ints a.Csr.adjncy = ints b.Csr.adjncy
  && (match (a.Csr.weights, b.Csr.weights) with
     | None, None -> true
     | Some x, Some y -> ints x = ints y
     | _ -> false)
  && Csr.max_weight a = Csr.max_weight b

(* snapshot (which writes any pending delta into a new base) against the
   to_csr build taken just before it; the lane is there exactly when the
   graph is weighted *)
let commit_matches g =
  let expected = Graph.to_csr g in
  let weighted = Graph.is_weighted g in
  let got = Graph.snapshot g in
  same_store got expected && (got.Csr.weights <> None) = weighted

(* ops as (kind, a, b): add at weight 1–3, remove, isolate, resurrect at the
   same and at another weight, copy (the original is kept and re-checked at
   the end), snapshot, and stripping every non-unit edge *)
let prop_commit_is_to_csr =
  QCheck.Test.make ~name:"commit (row merge) = Graph.to_csr" ~count:300
    QCheck.(
      quad (int_range 0 4) (int_range 2 30) small_nat
        (small_list (triple small_nat small_nat small_nat)))
    (fun (src, n, seed, ops) ->
      let g = ref (commit_start src (max 2 n) seed) in
      let n = Graph.n !g in
      (* the start as adopted or generated, on a copy so the ops still see
         its pending deletions *)
      let kept = ref [ Graph.copy !g ] and ok = ref (commit_matches (Graph.copy !g)) in
      let resurrect u v reweight =
        if Graph.mem_edge !g u v then begin
          let w0 = Graph.edge_weight !g u v in
          ignore (Graph.remove_edge !g u v);
          ignore (Graph.add_edge ~weight:(if reweight then 1 + (w0 mod 3) else w0) !g u v)
        end
      in
      List.iter
        (fun (kind, a, b) ->
          let u = a mod n and v = b mod n in
          match kind mod 9 with
          | 0 | 1 -> ignore (Graph.add_edge ~weight:(1 + (kind / 9 mod 3)) !g u v)
          | 2 -> ignore (Graph.remove_edge !g u v)
          | 3 -> ignore (Graph.isolate !g u)
          | 4 -> resurrect u v false
          | 5 -> resurrect u v true
          | 6 ->
              kept := !g :: !kept;
              g := Graph.copy !g
          | 7 -> if not (commit_matches !g) then ok := false
          | _ ->
              List.iter
                (fun (x, y, w) -> if w <> 1 then ignore (Graph.remove_edge !g x y))
                (let acc = ref [] in
                 Graph.iter_edges_w !g (fun x y w -> acc := (x, y, w) :: !acc);
                 !acc))
        ops;
      !ok && List.for_all commit_matches (!g :: !kept))

(* ---- expander generator ---- *)

let test_expander_shape () =
  let n = 600 and d = 8 in
  let g = Generators.expander (Prng.create 42) n d in
  check Alcotest.int "n" n (Graph.n g);
  let c = Graph.snapshot g in
  let dist = Bfs.distances c 0 in
  Array.iteri
    (fun v dv -> if dv < 0 then Alcotest.failf "node %d unreachable" v)
    dist;
  let dmin = ref max_int and dmax = ref 0 in
  for v = 0 to n - 1 do
    let dv = Graph.degree g v in
    if dv < !dmin then dmin := dv;
    if dv > !dmax then dmax := dv
  done;
  check Alcotest.bool "min degree >= 2" true (!dmin >= 2);
  check Alcotest.bool "max degree <= d" true (!dmax <= d);
  (* permutation collisions are a o(1) fraction: mean degree near d *)
  check Alcotest.bool "mean degree > d - 2" true
    (2 * Graph.m g > (d - 2) * n)

let test_expander_deterministic () =
  let build seed = Graph.snapshot (Generators.expander (Prng.create seed) 300 6) in
  let a = build 7 and b = build 7 and c = build 8 in
  check Alcotest.bool "same seed, same arrays" true
    (a.Csr.xadj = b.Csr.xadj && a.Csr.adjncy = b.Csr.adjncy);
  check Alcotest.bool "different seed differs" true
    (c.Csr.adjncy <> a.Csr.adjncy)

let test_expander_invalid () =
  let expects_invalid name f =
    check Alcotest.bool name true
      (try
         ignore (f ());
         false
       with Invalid_argument _ -> true)
  in
  expects_invalid "n too small" (fun () ->
      Generators.expander (Prng.create 1) 2 2);
  expects_invalid "d too small" (fun () ->
      Generators.expander (Prng.create 1) 10 1);
  expects_invalid "d >= n" (fun () ->
      Generators.expander (Prng.create 1) 10 10)

(* ---- Elkin–Neiman spanner: certification + sparsity ---- *)

(* k = 2: stretch bound 3, expected O(n^{3/2}) edges.  The sparsity check
   uses a generous constant so it stays a property of the algorithm, not of
   one seed. *)
let en_bound n m = min m (int_of_float (4.0 *. (float_of_int n ** 1.5)) + n)

let check_en_case name seed g =
  let r = Elkin_neiman.build (Prng.create seed) g in
  let h = r.Elkin_neiman.spanner in
  check Alcotest.int (name ^ ": same node set") (Graph.n g) (Graph.n h);
  Graph.iter_edges h (fun u v ->
      if not (Graph.mem_edge g u v) then
        Alcotest.failf "%s: spanner edge (%d,%d) not in g" name u v);
  let s = Stretch.exact_bounded g h ~bound:3 in
  check Alcotest.bool (name ^ ": stretch <= 3") true (s >= 1 && s <= 3);
  check Alcotest.bool (name ^ ": sparsity") true
    (Graph.m h <= en_bound (Graph.n g) (Graph.m g));
  check Alcotest.int
    (name ^ ": removed accounting")
    (Graph.m g)
    (Graph.m h - r.Elkin_neiman.repaired + r.Elkin_neiman.removed)

let test_en_families () =
  (* dense (where the keep rule actually bites), sparse, expander, random —
     several seeds each *)
  List.iter
    (fun seed ->
      check_en_case "complete" seed (Generators.complete 120);
      check_en_case "two-cliques" seed (Generators.two_cliques_matching 80);
      check_en_case "torus" seed (Generators.torus 12 12);
      check_en_case "expander" seed
        (Generators.expander (Prng.create (seed + 100)) 1500 8);
      check_en_case "erdos-renyi" seed
        (Generators.erdos_renyi (Prng.create (seed + 200)) 250 0.15))
    [ 1; 2; 3 ]

let test_en_dense_sparsifies () =
  (* on K_n the exponential race must remove a constant fraction *)
  let g = Generators.complete 200 in
  let r = Elkin_neiman.build (Prng.create 11) g in
  check Alcotest.bool "removes at least a third of K_200" true
    (3 * Graph.m r.Elkin_neiman.spanner < 2 * Graph.m g)

let test_en_deterministic () =
  let g = Generators.expander (Prng.create 5) 800 8 in
  let build seed =
    Graph.snapshot (Elkin_neiman.build (Prng.create seed) g).Elkin_neiman.spanner
  in
  let a = build 9 and b = build 9 in
  check Alcotest.bool "same seed, same spanner" true
    (a.Csr.xadj = b.Csr.xadj && a.Csr.adjncy = b.Csr.adjncy)

(* The keep loop's emit decisions, pinned: a digest of the spanner's
   edges and its removed/repaired counts on a dense and a sparse input, at
   k = 2 and 3 and seeds 1-3.  The value was computed before the loop
   stamped its origins (it tested each one with [List.mem]). *)
let test_en_pinned () =
  let inputs = [ Generators.complete 60; Generators.expander (Prng.create 7) 400 24 ] in
  let line g k seed =
    let r = Elkin_neiman.build ~k (Prng.create seed) g in
    let edges = List.sort compare (Graph.edges r.Elkin_neiman.spanner) in
    Printf.sprintf "k=%d seed=%d removed=%d repaired=%d %s" k seed r.Elkin_neiman.removed
      r.Elkin_neiman.repaired
      (String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) edges))
  in
  let lines =
    List.concat_map
      (fun g -> List.concat_map (fun k -> List.map (line g k) [ 1; 2; 3 ]) [ 2; 3 ])
      inputs
  in
  check Alcotest.string "spanner digest" "c1429a0d480c0a8a2320c4d44dcc3a20"
    (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let test_en_invalid () =
  check Alcotest.bool "k = 0 rejected" true
    (try
       ignore (Elkin_neiman.build ~k:0 (Prng.create 1) (Generators.cycle 5));
       false
     with Invalid_argument _ -> true)

let prop_en_certified =
  QCheck.Test.make ~name:"Elkin–Neiman stretch <= 3 on random graphs"
    ~count:40
    QCheck.(triple small_int (int_range 2 60) (int_range 0 100))
    (fun (seed, n, p100) ->
      let g =
        Generators.erdos_renyi (Prng.create seed) n
          (float_of_int p100 /. 100.0)
      in
      let r = Elkin_neiman.build (Prng.create (seed + 1)) g in
      let s = Stretch.exact_bounded g r.Elkin_neiman.spanner ~bound:3 in
      s <= 3 && Graph.m r.Elkin_neiman.spanner <= Graph.m g)

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "csr-store",
        Alcotest.test_case "basic" `Quick test_store_basic
        :: Alcotest.test_case "empty/invalid" `Quick
             test_store_empty_and_invalid
        :: Alcotest.test_case "canonical" `Quick test_store_canonical
        :: q
             [
               prop_csr_matches_model;
               prop_snapshot_accessors_match_graph;
               prop_reads_are_rows;
               prop_stream_builders;
               prop_commit_is_to_csr;
             ] );
      ( "expander",
        [
          Alcotest.test_case "shape" `Quick test_expander_shape;
          Alcotest.test_case "deterministic" `Quick test_expander_deterministic;
          Alcotest.test_case "invalid" `Quick test_expander_invalid;
        ] );
      ( "elkin-neiman",
        Alcotest.test_case "families x seeds" `Quick test_en_families
        :: Alcotest.test_case "dense sparsifies" `Quick test_en_dense_sparsifies
        :: Alcotest.test_case "deterministic" `Quick test_en_deterministic
        :: Alcotest.test_case "invalid" `Quick test_en_invalid
        :: q [ prop_en_certified ]
        @ [ Alcotest.test_case "pinned decisions" `Quick test_en_pinned ] );
    ]
