type row = {
  label : string;
  n : int;
  m_graph : int;
  m_spanner : int;
  lambda : float;
  lambda_spanner : float;
  dist_stretch : int;
  matching : Dc.matching_report;
  general : Dc.general_report option;
}

let evaluate ?(trials = 5) ?(with_general = true) ?(with_lambda = true) rng (dc : Dc.t) =
  let g = dc.Dc.graph and h = dc.Dc.spanner in
  let n = Graph.n g in
  (* one CSR snapshot per graph for the whole evaluation: spectral, exact
     stretch and baseline routing all read the same immutable views *)
  let gc = Graph.snapshot g and hc = Graph.snapshot h in
  let lambda, lambda_spanner =
    Trace.with_span ~name:"experiment.spectral" (fun () ->
        if with_lambda then (Spectral.lambda gc, Spectral.lambda hc) else (0.0, 0.0))
  in
  let dist_stretch = Stretch.exact_parallel ~snapshot:hc g h in
  let matching =
    Trace.with_span ~name:"experiment.matching" (fun () -> Dc.measure_matching dc rng ~trials)
  in
  let general =
    if with_general then
      Trace.with_span ~name:"experiment.general" (fun () ->
          let problem = Problems.permutation rng g in
          let base_routing = Sp_routing.route_random gc rng problem in
          Some (Dc.measure_general dc rng base_routing))
    else None
  in
  {
    label = dc.Dc.name;
    n;
    m_graph = Graph.m g;
    m_spanner = Graph.m h;
    lambda;
    lambda_spanner;
    dist_stretch;
    matching;
    general;
  }

let edges_norm row e = float_of_int row.m_spanner /. (float_of_int row.n ** e)

let row_columns =
  [
    "n";
    "m(G)";
    "m(H)";
    "m(H)/n^e";
    "lam(G)";
    "lam(H)";
    "dist";
    "match-cong mean";
    "match-cong max";
    "gen-stretch";
    "decomp sum(dk+1)";
  ]

let row_cells row ~norm_exp =
  let f = Stats.fmt_float in
  [
    string_of_int row.n;
    string_of_int row.m_graph;
    string_of_int row.m_spanner;
    f (edges_norm row norm_exp);
    f row.lambda;
    f row.lambda_spanner;
    (if row.dist_stretch = max_int then "disc" else string_of_int row.dist_stretch);
    f row.matching.Dc.mean_congestion;
    string_of_int row.matching.Dc.max_congestion;
    (match row.general with None -> "-" | Some g -> f g.Dc.stretch);
    (match row.general with
    | None -> "-"
    | Some g -> string_of_int g.Dc.decompose.Decompose.degree_sum);
  ]

(* registry-driven normalization: the construction's metadata carries the
   expected edge exponent, so sweeps never pass magic floats *)
let row_cells_of ctor row = row_cells row ~norm_exp:ctor.Construction.edge_exponent
