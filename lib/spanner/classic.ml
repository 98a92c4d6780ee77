(* Bounded BFS on the mutable graph, used by the greedy construction where
   the spanner changes between queries (a CSR snapshot per edge would
   dominate the cost). *)
let distance_bounded_mut h u v ~bound =
  if u = v then 0
  else begin
    let n = Graph.n h in
    let dist = Array.make n (-1) in
    let queue = Queue.create () in
    dist.(u) <- 0;
    Queue.add u queue;
    let result = ref (-1) in
    (try
       while not (Queue.is_empty queue) do
         let x = Queue.pop queue in
         if dist.(x) < bound then
           Graph.iter_neighbors h x (fun y ->
               if dist.(y) < 0 then begin
                 dist.(y) <- dist.(x) + 1;
                 if y = v then begin
                   result := dist.(y);
                   raise Exit
                 end;
                 Queue.add y queue
               end)
       done
     with Exit -> ());
    !result
  end

let greedy g ~k =
  if k < 1 then invalid_arg "Classic.greedy: k must be >= 1";
  let bound = (2 * k) - 1 in
  let h = Graph.empty_like g in
  let edges = Graph.edge_array g in
  Array.iter
    (fun (u, v) ->
      let d = distance_bounded_mut h u v ~bound in
      if d < 0 then ignore (Graph.add_edge h u v))
    edges;
  h

let baswana_sen_3 rng g =
  let n = Graph.n g in
  let h = Graph.empty_like g in
  if n > 0 then begin
    let p = 1.0 /. sqrt (float_of_int n) in
    let center = Array.init n (fun _ -> Prng.bool rng p) in
    (* cluster.(v) = id of v's cluster center, or -1 if unclustered. *)
    let cluster = Array.make n (-1) in
    for v = 0 to n - 1 do
      if center.(v) then cluster.(v) <- v
    done;
    for v = 0 to n - 1 do
      if not center.(v) then begin
        let adjacent_center =
          Graph.fold_neighbors g v (fun acc u -> if center.(u) then Some u else acc) None
        in
        match adjacent_center with
        | None ->
            (* Not adjacent to any sampled center: keep all incident edges. *)
            Graph.iter_neighbors g v (fun u -> ignore (Graph.add_edge h v u))
        | Some c ->
            cluster.(v) <- c;
            ignore (Graph.add_edge h v c)
      end
    done;
    (* Phase 2: each node keeps one edge into every adjacent foreign cluster. *)
    for v = 0 to n - 1 do
      let seen = Hashtbl.create 8 in
      Graph.iter_neighbors g v (fun u ->
          let c = cluster.(u) in
          if c >= 0 && c <> cluster.(v) && not (Hashtbl.mem seen c) then begin
            Hashtbl.add seen c ();
            ignore (Graph.add_edge h v u)
          end)
    done
  end;
  h
