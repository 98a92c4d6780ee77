type thresholds = Scaled | Paper | Explicit of int * int

type t = {
  spanner : Graph.t;
  sampled : Graph.t;
  reinserted : int;
  repaired : int;
  support_a : int;
  support_b : int;
  delta : int;
  delta' : int;
}

let resolve_thresholds thresholds ~n ~delta ~delta' =
  match thresholds with
  | Explicit (a, b) -> (a, b)
  | Scaled ->
      let a = max 2 (int_of_float (ceil (log (float_of_int (max 2 n))))) in
      let b = max 1 (delta / 4) in
      (a, b)
  | Paper ->
      let c1 = 0.5 in
      let ln_n = log (float_of_int (max 2 n)) in
      let lambda = 128.0 *. ln_n *. ln_n /. c1 in
      let a = int_of_float (ceil (lambda *. float_of_int delta')) in
      let b = int_of_float (ceil (c1 *. float_of_int delta)) in
      (a, b)

let m_reinserted = Metrics.counter "spanner.reinserted"
let m_repaired = Metrics.counter "spanner.repaired"

let build ?(thresholds = Scaled) ?(repair = true) rng g =
  let n = Graph.n g in
  let delta = Graph.max_degree g in
  let delta' = max 1 (int_of_float (ceil (sqrt (float_of_int delta)))) in
  let rho = if delta = 0 then 1.0 else float_of_int delta' /. float_of_int delta in
  let support_a, support_b = resolve_thresholds thresholds ~n ~delta ~delta' in
  (* Line 3-5: keep each edge with probability ρ. *)
  let sampled =
    Trace.with_span ~name:"spanner.sampling" (fun () ->
        Graph.filter_edges g (fun _ _ -> Prng.bool rng rho))
  in
  (* Line 8-9: reinsert edges that are not (a, b)-supported in any direction. *)
  let spanner, reinserted =
    Trace.with_span ~name:"spanner.sparsify" (fun () ->
        let spanner = Graph.copy sampled in
        let reinserted =
          Support.reinsert_unsupported g spanner ~a:support_a ~b:(fun _ _ -> support_b)
        in
        (spanner, reinserted))
  in
  Metrics.add m_reinserted reinserted;
  (* Repair pass: a supported removed edge is safe only if one of its
     3-detours survived the sampling (Corollary 2 makes failures rare but
     possible); reinserting the stragglers makes stretch 3 unconditional. *)
  let repaired =
    if repair then
      Trace.with_span ~name:"spanner.repair" (fun () -> Support.repair g spanner ~bound:3)
    else 0
  in
  Metrics.add m_repaired repaired;
  {
    spanner;
    sampled;
    reinserted;
    repaired;
    support_a;
    support_b;
    delta;
    delta';
  }

let detours h ~cap u v =
  if Graph.mem_edge h u v then Dc.Direct
  else
    let twos = List.map (fun x -> [| u; x; v |]) (Support.two_detours h ~u ~v ~cap) in
    let threes = List.map (fun (x, z) -> [| u; x; z; v |]) (Support.three_detours h ~u ~v ~cap) in
    Dc.Uniform (Array.of_list (twos @ threes))

let to_dc ?(detour_cap = 64) t g =
  Dc.make ~name:"algorithm1" ~graph:g ~spanner:t.spanner (detours t.spanner ~cap:detour_cap)
