type t = {
  n : int;
  delta : int;
  regular : bool;
  degree_ratio : float;
  min_delta : float;
  delta_ok : bool;
  lambda : float;
  lambda_budget : float;
  expander_ok : bool;
  weighted : bool;
}

let check g =
  let n = Graph.n g in
  let delta = Graph.max_degree g in
  let min_deg = Graph.min_degree g in
  let min_delta = float_of_int (max 1 n) ** (2.0 /. 3.0) in
  let lambda = Spectral.lambda_lanczos (Graph.snapshot g) in
  let lambda_budget =
    if n = 0 then 0.0 else float_of_int (delta * delta) /. float_of_int n
  in
  {
    n;
    delta;
    regular = Graph.is_regular g;
    degree_ratio = float_of_int delta /. float_of_int (max 1 min_deg);
    min_delta;
    delta_ok = float_of_int delta >= min_delta;
    lambda;
    lambda_budget;
    expander_ok = lambda <= lambda_budget /. 2.0;
    weighted = Graph.is_weighted g;
  }

let theorem3_ok t = t.delta_ok && t.degree_ratio <= 2.0

let theorem2_ok t = theorem3_ok t && t.expander_ok && not t.weighted

type requirement = Any | Expander | Theorem3 | Theorem2

let requirement_text = function
  | Any -> "any graph"
  | Expander -> "spectral expander (lambda <= Delta^2/2n)"
  | Theorem3 -> "near-regular, Delta >= n^{2/3}"
  | Theorem2 -> "near-regular expander, Delta >= n^{2/3}"

let satisfied req t =
  match req with
  | Any -> true
  | Expander -> t.expander_ok
  | Theorem3 -> theorem3_ok t
  | Theorem2 -> theorem2_ok t

let density_warning t =
  if t.delta_ok then []
  else
    [ Printf.sprintf "degree %d below the n^{2/3} = %.1f density threshold" t.delta t.min_delta ]

let regularity_warning t =
  if t.degree_ratio <= 2.0 then []
  else
    [
      Printf.sprintf "degrees vary by %.1fx: outside the (near-)regular regime (consider Irregular)"
        t.degree_ratio;
    ]

let expansion_warning t =
  if t.expander_ok then []
  else
    [
      Printf.sprintf "expansion lambda = %.1f exceeds the Theorem 2 allowance %.1f (= Delta^2/2n)"
        t.lambda (t.lambda_budget /. 2.0);
    ]

let weight_warning t =
  if t.weighted then
    [ "weighted graph: Theorem 2 is stated for unweighted expanders and its sampler counts hops" ]
  else []

let violations req t =
  match req with
  | Any -> []
  | Expander -> expansion_warning t
  | Theorem3 -> density_warning t @ regularity_warning t
  | Theorem2 -> density_warning t @ regularity_warning t @ expansion_warning t @ weight_warning t

let describe t = violations Theorem2 t
