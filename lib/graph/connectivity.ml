let components g =
  let size = Graph.n g in
  let label = Array.make size (-1) in
  let next = ref 0 in
  let stack = ref [] in
  for s = 0 to size - 1 do
    if label.(s) < 0 then begin
      let id = !next in
      incr next;
      label.(s) <- id;
      stack := [ s ];
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | v :: rest ->
            stack := rest;
            Graph.iter_neighbors g v (fun u ->
                if label.(u) < 0 then begin
                  label.(u) <- id;
                  stack := u :: !stack
                end)
      done
    end
  done;
  label

let count g =
  let label = components g in
  Array.fold_left max (-1) label + 1

let is_connected g = Graph.n g <= 1 || count g = 1

let repair h ~within:g =
  if Graph.n h <> Graph.n g then invalid_arg "Connectivity.repair: size mismatch";
  let uf = Union_find.create (Graph.n h) in
  Graph.iter_edges h (fun u v -> ignore (Union_find.union uf u v));
  let added = ref 0 in
  Graph.iter_edges_w g (fun u v w ->
      if not (Union_find.same uf u v) then begin
        ignore (Union_find.union uf u v);
        ignore (Graph.add_edge ~weight:w h u v);
        incr added
      end);
  !added
