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
        let sampled = Graph.empty_like g in
        Graph.iter_edges g (fun u v ->
            if Prng.bool rng rho then ignore (Graph.add_edge sampled u v));
        sampled)
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
    if repair then Trace.with_span ~name:"spanner.repair" (fun () -> Support.repair g spanner)
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

let router t ~detour_cap rng pairs =
  let h = t.spanner in
  let csr = lazy (Csr.snapshot h) in
  Array.map
    (fun (u, v) ->
      if Graph.mem_edge h u v then [| u; v |]
      else begin
        (* Candidate replacements: 2-detours u–x–v and 3-detours u–x–z–v
           surviving in H; uniform random choice spreads the congestion
           (Lemma 17 / proof of Lemma 7). *)
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
            | None -> invalid_arg "Regular_dc.router: spanner disconnected for pair")
        | _ -> Prng.pick rng (Array.of_list candidates)
      end)
    pairs

let to_dc ?(detour_cap = 64) t g =
  {
    Dc.name = "algorithm1";
    graph = g;
    spanner = t.spanner;
    route_matching = (fun rng pairs -> router t ~detour_cap rng pairs);
  }
