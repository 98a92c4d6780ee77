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

(* [Δ] and [Δ' = ⌈√Δ⌉] of [g] *)
let degrees g =
  let delta = Graph.max_degree g in
  (delta, max 1 (int_of_float (ceil (sqrt (float_of_int delta)))))

let sampling_rate g =
  let delta, delta' = degrees g in
  if delta = 0 then 1.0 else float_of_int delta' /. float_of_int delta

let support_thresholds thresholds g =
  let delta, delta' = degrees g in
  match thresholds with
  | Explicit (a, b) -> (a, b)
  | Scaled ->
      let a = max 2 (int_of_float (ceil (log (float_of_int (max 2 (Graph.n g)))))) in
      let b = max 1 (delta / 4) in
      (a, b)
  | Paper ->
      let c1 = 0.5 in
      let ln_n = log (float_of_int (max 2 (Graph.n g))) in
      let lambda = 128.0 *. ln_n *. ln_n /. c1 in
      let a = int_of_float (ceil (lambda *. float_of_int delta')) in
      let b = int_of_float (ceil (c1 *. float_of_int delta)) in
      (a, b)

let of_sample ?(repair = true) g ~sampled ~a ~b =
  (* Line 8-9: reinsert edges that are not (a, b)-supported in any direction. *)
  let spanner, reinserted =
    Trace.with_span ~name:"spanner.sparsify" (fun () ->
        let spanner = Graph.copy sampled in
        let reinserted = Support.reinsert_unsupported g spanner ~a ~b:(fun _ _ -> b) in
        (spanner, reinserted))
  in
  (* Repair pass: a supported removed edge is safe only if one of its
     3-detours survived the sampling (Corollary 2 makes failures rare but
     possible); reinserting the stragglers makes stretch 3 unconditional. *)
  let repaired =
    if repair then
      Trace.with_span ~name:"spanner.repair" (fun () -> Support.repair g spanner ~bound:3)
    else 0
  in
  (spanner, reinserted, repaired)

let m_reinserted = Metrics.counter "spanner.reinserted"
let m_repaired = Metrics.counter "spanner.repaired"

let build ?(thresholds = Scaled) ?(repair = true) rng g =
  let delta, delta' = degrees g in
  let rho = sampling_rate g in
  let support_a, support_b = support_thresholds thresholds g in
  (* Line 3-5: keep each edge with probability ρ. *)
  let sampled =
    Trace.with_span ~name:"spanner.sampling" (fun () ->
        Graph.filter_edges g (fun _ _ -> Prng.bool rng rho))
  in
  let spanner, reinserted, repaired = of_sample ~repair g ~sampled ~a:support_a ~b:support_b in
  (* counted here, not in [of_sample]: the Corollary 3 protocol runs the
     pass once per node on a ball and keeps only that node's decisions *)
  Metrics.add m_reinserted reinserted;
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
