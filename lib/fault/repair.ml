type report = {
  spanner : Graph.t;
  added : Graph.edge list;
  connectivity_added : int;
  stretch_added : int;
  connected : bool;
  dist_stretch : int;
  certified : bool;
}

let m_added = Metrics.counter "repair.edges_added"

let run ?(alpha = 3) damaged ~within =
  Trace.with_span ~name:"repair.run" @@ fun () ->
  if Graph.n damaged <> Graph.n within then invalid_arg "Repair.run: node counts differ";
  if not (Graph.is_subgraph damaged ~of_:within) then
    invalid_arg "Repair.run: damaged spanner is not a subgraph of the survivor graph";
  if alpha < 1 then invalid_arg "Repair.run: alpha < 1";
  let h = Graph.copy damaged in
  let added = ref [] in
  (* re-added edges keep their survivor-graph weight so the repaired spanner
     stays a subgraph of [within] in the weighted sense too *)
  let add u v =
    if Graph.add_edge ~weight:(Graph.edge_weight within u v) h u v then begin
      added := (min u v, max u v) :: !added;
      Metrics.incr m_added
    end
  in
  (* phase 1: connectivity — in ascending edge order, so the repair is a
     pure function of the damaged/survivor edge sets *)
  let connectivity_added =
    Trace.with_span ~name:"repair.connectivity" @@ fun () ->
    let uf = Union_find.create (Graph.n h) in
    Graph.iter_edges h (fun u v -> ignore (Union_find.union uf u v));
    let before = List.length !added in
    Graph.iter_edges within (fun u v -> if Union_find.union uf u v then add u v);
    List.length !added - before
  in
  (* phase 2: stretch — every surviving edge must have a detour <= alpha;
     re-adding a violating edge fixes it outright (distance becomes 1) and
     adding edges never lengthens any other detour *)
  let stretch_added =
    Trace.with_span ~name:"repair.stretch" @@ fun () ->
    let violations = Stretch.violations within h ~bound:alpha in
    List.iter (fun (u, v) -> add u v) violations;
    List.length violations
  in
  (* re-certify *)
  let connected = Connectivity.count h = Connectivity.count within in
  let dist_stretch = Trace.with_span ~name:"repair.certify" @@ fun () -> Stretch.exact within h in
  let certified = connected && dist_stretch <> max_int && dist_stretch <= alpha in
  Log.info
    ~fields:
      [
        ("connectivity_added", string_of_int connectivity_added);
        ("stretch_added", string_of_int stretch_added);
        ("dist_stretch", if dist_stretch = max_int then "inf" else string_of_int dist_stretch);
        ("certified", string_of_bool certified);
      ]
    "repair.done";
  if not certified then
    Log.warn
      ~fields:
        [
          ("connected", string_of_bool connected);
          ("dist_stretch", if dist_stretch = max_int then "inf" else string_of_int dist_stretch);
          ("alpha", string_of_int alpha);
        ]
      "repair.uncertified";
  {
    spanner = h;
    added = List.rev !added;
    connectivity_added;
    stretch_added;
    connected;
    dist_stretch;
    certified;
  }

let certify_dc ?(trials = 8) ?beta ~alpha report ~within rng =
  if not (Connectivity.is_connected within) then
    invalid_arg
      "Repair.certify_dc: the survivor graph is disconnected (Definition 4 samples \
       whole-graph routing problems)";
  let beta =
    match beta with
    | Some b -> b
    | None ->
        let delta = float_of_int (max 1 (Graph.max_degree within)) in
        12.0 *. (1.0 +. (2.0 *. sqrt delta)) *. Stats.log2 (float_of_int (max 2 (Graph.n within)))
  in
  let dc = Dc.of_sp_router ~name:"repair" ~graph:within ~spanner:report.spanner in
  Dc_check.estimate ~trials ~alpha ~beta dc rng
