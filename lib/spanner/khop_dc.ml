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
          Graph.filter_edges g (fun _ _ -> Prng.bool rng rho))
    in
    (* Distance-repair: re-add every edge of G with no (2k-1)-detour in the
       sampled graph. *)
    let spanner = Graph.copy sampled in
    let reinserted =
      Trace.with_span ~name:"spanner.repair" (fun () ->
          Support.repair g spanner ~bound:((2 * k) - 1))
    in
    { spanner; sampled; k; rho; reinserted }
  end

let to_dc t g =
  let h = t.spanner in
  Dc.make ~name:(Printf.sprintf "khop-%d" ((2 * t.k) - 1)) ~graph:g ~spanner:h (fun u v ->
      if Graph.mem_edge h u v then Dc.Direct else Dc.Shortest)
