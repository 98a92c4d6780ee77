type fault = Fail_node of int | Fail_edge of int * int

type t = { n : int; events : (int * fault list) list }

let normalize_edge u v = if u <= v then (u, v) else (v, u)

let validate_fault n = function
  | Fail_node v ->
      if v < 0 || v >= n then invalid_arg "Fault_plan: node out of range";
      Fail_node v
  | Fail_edge (u, v) ->
      if u < 0 || v < 0 || u >= n || v >= n then invalid_arg "Fault_plan: edge endpoint out of range";
      if u = v then invalid_arg "Fault_plan: self-loop edge";
      let u, v = normalize_edge u v in
      Fail_edge (u, v)

let schedule ~n events =
  if n < 0 then invalid_arg "Fault_plan.schedule: negative node count";
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (round, faults) ->
      if round < 1 then invalid_arg "Fault_plan.schedule: rounds start at 1";
      let faults = List.map (validate_fault n) faults in
      let prev = Option.value (Hashtbl.find_opt tbl round) ~default:[] in
      Hashtbl.replace tbl round (faults @ prev))
    events;
  let rounds = Hashtbl.fold (fun r fs acc -> (r, fs) :: acc) tbl [] in
  let events =
    rounds
    |> List.map (fun (r, fs) -> (r, List.sort_uniq compare fs))
    |> List.filter (fun (_, fs) -> fs <> [])
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  { n; events }

let empty n = schedule ~n []

let uniform_nodes ?(round = 1) rng g ~p =
  let n = Graph.n g in
  let acc = ref [] in
  for v = 0 to n - 1 do
    if Prng.bool rng p then acc := Fail_node v :: !acc
  done;
  schedule ~n [ (round, List.rev !acc) ]

let uniform_edges ?(round = 1) rng g ~p =
  let acc = ref [] in
  Graph.iter_edges g (fun u v -> if Prng.bool rng p then acc := Fail_edge (u, v) :: !acc);
  schedule ~n:(Graph.n g) [ (round, List.rev !acc) ]

let adversarial_load ?(round = 1) ~n routing ~k =
  let loads = Routing.node_loads ~n routing in
  let order = Array.init n (fun v -> v) in
  (* heaviest first, ties by smaller id: deterministic adversary *)
  Array.sort (fun a b -> if loads.(a) <> loads.(b) then compare loads.(b) loads.(a) else compare a b) order;
  let acc = ref [] in
  let taken = ref 0 in
  Array.iter
    (fun v ->
      if !taken < k && loads.(v) > 0 then begin
        acc := Fail_node v :: !acc;
        incr taken
      end)
    order;
  schedule ~n [ (round, List.rev !acc) ]

let targeted_edges ?(round = 1) ~n edges =
  schedule ~n [ (round, List.map (fun (u, v) -> Fail_edge (u, v)) edges) ]

let merge a b =
  if a.n <> b.n then invalid_arg "Fault_plan.merge: node counts differ";
  schedule ~n:a.n (a.events @ b.events)

let events t = t.events

let n t = t.n

let is_empty t = t.events = []

let last_round t = List.fold_left (fun acc (r, _) -> max acc r) 0 t.events

let count pred t =
  List.fold_left
    (fun acc (_, fs) -> acc + List.length (List.filter pred fs))
    0 t.events

let node_faults t = count (function Fail_node _ -> true | Fail_edge _ -> false) t

let edge_faults t = count (function Fail_edge _ -> true | Fail_node _ -> false) t

let failed_nodes t =
  let dead = Array.make t.n false in
  List.iter
    (fun (_, fs) ->
      List.iter (function Fail_node v -> dead.(v) <- true | Fail_edge _ -> ()) fs)
    t.events;
  dead

let survivor g t =
  if Graph.n g <> t.n then invalid_arg "Fault_plan.survivor: node counts differ";
  let h = Graph.copy g in
  List.iter
    (fun (_, fs) ->
      List.iter
        (function
          | Fail_node v -> ignore (Graph.isolate h v)
          | Fail_edge (u, v) -> ignore (Graph.remove_edge h u v))
        fs)
    t.events;
  h
