let base_support bm u z = Bitmat.common_count bm u z

let supported_extensions g bm ~u ~v ~a =
  Graph.fold_neighbors g v
    (fun acc z ->
      if z <> u && Bitmat.common_count_at_least bm u z (a + 1) then z :: acc else acc)
    []

(* extensions (v, z) of (u, v) toward v whose base {u, z} passes [base_ok z],
   counted up to [limit] *)
let count_extensions g ~u ~v ~limit base_ok =
  let count = ref 0 in
  (try
     Graph.iter_neighbors g v (fun z ->
         if z <> u && base_ok z then begin
           incr count;
           if !count >= limit then raise Exit
         end)
   with Exit -> ());
  !count

let count_supported_extensions g bm ~u ~v ~a ~limit =
  count_extensions g ~u ~v ~limit (fun z -> Bitmat.common_count_at_least bm u z (a + 1))

let is_ab_supported_toward g bm ~u ~v ~a ~b =
  count_supported_extensions g bm ~u ~v ~a ~limit:b >= b

let is_ab_supported g bm u v ~a ~b =
  is_ab_supported_toward g bm ~u ~v ~a ~b || is_ab_supported_toward g bm ~u:v ~v:u ~a ~b

let reinsert_unsupported g h ~a ~b =
  let bm = Bitmat.of_graph g in
  (* [Graph.iter_edges_w] yields each source u's edges together, and the test
     toward v only asks about bases {u, z}: [stamp.(z) = u] means
     [base.(z)] already holds the answer for {u, z} *)
  let stamp = Array.make (Graph.n g) (-1) and base = Array.make (Graph.n g) false in
  let base_ok u z =
    if stamp.(z) <> u then begin
      stamp.(z) <- u;
      base.(z) <- Bitmat.common_count_at_least bm u z (a + 1)
    end;
    base.(z)
  in
  let reinserted = ref 0 in
  Graph.iter_edges_w g (fun u v w ->
      if not (Graph.mem_edge h u v) then begin
        let b = b u v in
        if
          not
            (count_extensions g ~u ~v ~limit:b (base_ok u) >= b
            || is_ab_supported_toward g bm ~u:v ~v:u ~a ~b)
        then begin
          ignore (Graph.add_edge ~weight:w h u v);
          incr reinserted
        end
      end);
  !reinserted

let repair g h ~bound =
  let bad = Stretch.violations g h ~bound in
  List.iter (fun (u, v) -> ignore (Graph.add_edge ~weight:(Graph.edge_weight g u v) h u v)) bad;
  List.length bad

let three_detours h ~u ~v ~cap =
  let out = ref [] in
  let count = ref 0 in
  (try
     Graph.iter_neighbors h v (fun z ->
         if z <> u && z <> v then
           Graph.iter_neighbors h z (fun x ->
               if x <> v && x <> u && x <> z && Graph.mem_edge h u x then begin
                 out := (x, z) :: !out;
                 incr count;
                 if !count >= cap then raise Exit
               end))
   with Exit -> ());
  !out

let two_detours h ~u ~v ~cap =
  let out = ref [] in
  let count = ref 0 in
  (try
     Graph.iter_neighbors h u (fun x ->
         if x <> v && Graph.mem_edge h x v then begin
           out := x :: !out;
           incr count;
           if !count >= cap then raise Exit
         end)
   with Exit -> ());
  !out

type census = {
  edges_total : int;
  edges_supported : int;
  extension_counts : int array;
  detour_counts : int array;
}

let census ?(sample = 200) ?(cap = 1000) rng g ~a ~b =
  let bm = Bitmat.of_graph g in
  let edges = Graph.edge_array g in
  let total = Array.length edges in
  let supported = ref 0 in
  Array.iter (fun (u, v) -> if is_ab_supported g bm u v ~a ~b then incr supported) edges;
  let picked =
    if total <= sample then edges
    else Array.map (fun i -> edges.(i)) (Prng.sample_distinct rng ~n:total ~k:sample)
  in
  let extension_counts =
    Array.map
      (fun (u, v) ->
        max
          (count_supported_extensions g bm ~u ~v ~a ~limit:cap)
          (count_supported_extensions g bm ~u:v ~v:u ~a ~limit:cap))
      picked
  in
  let detour_counts =
    Array.map (fun (u, v) -> List.length (three_detours g ~u ~v ~cap)) picked
  in
  { edges_total = total; edges_supported = !supported; extension_counts; detour_counts }
