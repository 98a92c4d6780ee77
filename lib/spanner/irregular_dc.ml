type t = { spanner : Graph.t; sampled : Graph.t; reinserted : int; repaired : int }

let build ?(repair = true) rng g =
  let n = Graph.n g in
  let local_degree u v = min (Graph.degree g u) (Graph.degree g v) in
  (* Degree-local sampling: rho_uv = 1/sqrt(min degree of endpoints). *)
  let sampled = Graph.empty_like g in
  Graph.iter_edges g (fun u v ->
      let d = max 1 (local_degree u v) in
      let rho = 1.0 /. sqrt (float_of_int d) in
      if Prng.bool rng rho then ignore (Graph.add_edge sampled u v));
  (* Support-based reinsertion with per-edge thresholds. *)
  let a = max 2 (int_of_float (ceil (log (float_of_int (max 2 n))))) in
  let spanner = Graph.copy sampled in
  let reinserted =
    Support.reinsert_unsupported g spanner ~a ~b:(fun u v -> max 1 (local_degree u v / 4))
  in
  (* Repair pass: identical to Regular_dc. *)
  let repaired = if repair then Support.repair g spanner else 0 in
  { spanner; sampled; reinserted; repaired }

let to_dc ?(detour_cap = 64) t g =
  let h = t.spanner in
  let csr = lazy (Csr.snapshot h) in
  let route_matching rng pairs =
    Array.map
      (fun (u, v) ->
        if Graph.mem_edge h u v then [| u; v |]
        else begin
          let twos = Support.two_detours h ~u ~v ~cap:detour_cap in
          let threes = Support.three_detours h ~u ~v ~cap:detour_cap in
          let candidates =
            List.map (fun x -> [| u; x; v |]) twos
            @ List.map (fun (x, z) -> [| u; x; z; v |]) threes
          in
          match candidates with
          | [] -> (
              match Bfs.shortest_path (Lazy.force csr) u v with
              | Some p -> p
              | None -> invalid_arg "Irregular_dc: spanner disconnected for pair")
          | _ -> Prng.pick rng (Array.of_list candidates)
        end)
      pairs
  in
  { Dc.name = "irregular"; graph = g; spanner = h; route_matching }
