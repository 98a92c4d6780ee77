type t = { spanner : Graph.t; sampled : Graph.t; reinserted : int; repaired : int }

let build ?(repair = true) rng g =
  let n = Graph.n g in
  let local_degree u v = min (Graph.degree g u) (Graph.degree g v) in
  (* Degree-local sampling: rho_uv = 1/sqrt(min degree of endpoints). *)
  let sampled =
    Graph.filter_edges g (fun u v ->
        let d = max 1 (local_degree u v) in
        Prng.bool rng (1.0 /. sqrt (float_of_int d)))
  in
  (* Support-based reinsertion with per-edge thresholds. *)
  let a = max 2 (int_of_float (ceil (log (float_of_int (max 2 n))))) in
  let spanner = Graph.copy sampled in
  let reinserted =
    Support.reinsert_unsupported g spanner ~a ~b:(fun u v -> max 1 (local_degree u v / 4))
  in
  (* Repair pass: identical to Regular_dc. *)
  let repaired = if repair then Support.repair g spanner ~bound:3 else 0 in
  { spanner; sampled; reinserted; repaired }

let to_dc t g =
  Dc.make ~name:"irregular" ~graph:g ~spanner:t.spanner (Regular_dc.detours t.spanner ~cap:64)
