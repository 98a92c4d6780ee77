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
  Graph.iter_edges_w g (fun u v w ->
      if distance_bounded_mut h u v ~bound < 0 then ignore (Graph.add_edge ~weight:w h u v));
  h
