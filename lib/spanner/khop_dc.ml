type t = { spanner : Graph.t; sampled : Graph.t; k : int; rho : float; reinserted : int }

let default_rho ~delta ~k =
  if delta <= 1 then 1.0
  else float_of_int delta ** (-.float_of_int (k - 1) /. float_of_int k)

let build ?rho ~k rng g =
  if k < 1 then invalid_arg "Khop_dc.build: need k >= 1";
  let delta = Graph.max_degree g in
  let rho = match rho with Some r -> min 1.0 (max 0.0 r) | None -> default_rho ~delta ~k in
  if k = 1 then
    { spanner = Graph.copy g; sampled = Graph.copy g; k; rho = 1.0; reinserted = 0 }
  else begin
    let sampled =
      Trace.with_span ~name:"spanner.sampling" (fun () ->
          let sampled = Graph.empty_like g in
          Graph.iter_edges g (fun u v ->
              if Prng.bool rng rho then ignore (Graph.add_edge sampled u v));
          sampled)
    in
    let spanner = Graph.copy sampled in
    (* Distance-repair: reinsert removed edges with no (2k-1)-detour in the
       sampled graph.  Reinserted edges only shorten distances, so checking
       against the sampled graph rather than the growing spanner is
       conservative (it may reinsert a few extra edges, never too few). *)
    let reinserted =
      Trace.with_span ~name:"spanner.repair" (fun () ->
          let bad = Stretch.violations g sampled ~bound:((2 * k) - 1) in
          List.iter (fun (u, v) -> ignore (Graph.add_edge spanner u v)) bad;
          List.length bad)
    in
    { spanner; sampled; k; rho; reinserted }
  end

let to_dc t g =
  let h = t.spanner in
  Dc.make ~name:(Printf.sprintf "khop-%d" ((2 * t.k) - 1)) ~graph:g ~spanner:h (fun u v ->
      if Graph.mem_edge h u v then Dc.Direct else Dc.Shortest)
