type violation = Invalid_substitute | Distance of float | Congestion of float

type verdict = {
  ok : bool;
  dist_stretch : float;
  cong_stretch : float;
  violations : violation list;
}

let check_routing ~alpha ~beta (dc : Dc.t) rng routing =
  let n = Graph.n dc.Dc.graph in
  let problem =
    Array.map
      (fun p -> { Routing.src = p.(0); dst = p.(Array.length p - 1) })
      routing
  in
  let { Decompose.substitute; _ } = Dc.route_general dc rng routing in
  let valid = Routing.is_valid dc.Dc.spanner problem substitute in
  let dist_stretch = Routing.max_stretch substitute ~against:routing in
  let base_c = max 1 (Routing.congestion ~n routing) in
  let sub_c = Routing.congestion ~n substitute in
  let cong_stretch = float_of_int sub_c /. float_of_int base_c in
  let violations =
    (if valid then [] else [ Invalid_substitute ])
    @ (if dist_stretch > alpha +. 1e-9 then [ Distance dist_stretch ] else [])
    @ if cong_stretch > beta +. 1e-9 then [ Congestion cong_stretch ] else []
  in
  { ok = violations = []; dist_stretch; cong_stretch; violations }

type estimate = {
  trials : int;
  successes : int;
  rate : float;
  worst_dist : float;
  worst_cong : float;
  cert_dist : int;
}

let estimate ?(trials = 20) ~alpha ~beta (dc : Dc.t) rng =
  if trials < 1 then invalid_arg "Dc_check.estimate: trials must be >= 1";
  let g = dc.Dc.graph in
  let csr = Graph.snapshot g in
  let n = Graph.n g in
  let sample_routing i =
    let shape = i mod 4 in
    let problem =
      match shape with
      | 0 -> Problems.edge_matching rng g
      | 1 -> Problems.node_matching rng g ~k:(max 1 (n / 8))
      | 2 -> Problems.permutation rng g
      | _ -> Problems.random_pairs rng g ~k:(max 1 (n / 4))
    in
    if shape = 0 then
      (* route the matching by its own edges: the optimal routing *)
      Array.map (fun { Routing.src; dst } -> [| src; dst |]) problem
    else Sp_routing.route_random csr rng problem
  in
  let m_trials = Metrics.counter "dc_check.trials" in
  let m_successes = Metrics.counter "dc_check.successes" in
  let successes = ref 0 in
  let worst_dist = ref 0.0 and worst_cong = ref 0.0 in
  for i = 0 to trials - 1 do
    let verdict =
      Trace.with_span ~name:"dc_check.trial" (fun () ->
          let routing = sample_routing i in
          check_routing ~alpha ~beta dc rng routing)
    in
    Metrics.incr m_trials;
    if verdict.ok then begin
      incr successes;
      Metrics.incr m_successes
    end;
    worst_dist := max !worst_dist verdict.dist_stretch;
    worst_cong := max !worst_cong verdict.cong_stretch
  done;
  (* exact (non-sampled) distance certificate, via the batched kernel: the
     routing trials above only witness stretch on the sampled workloads *)
  let cert_dist = Stretch.exact_parallel dc.Dc.graph dc.Dc.spanner in
  {
    trials;
    successes = !successes;
    rate = float_of_int !successes /. float_of_int trials;
    worst_dist = !worst_dist;
    worst_cong = !worst_cong;
    cert_dist;
  }
