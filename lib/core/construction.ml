type t = {
  name : string;
  aliases : string list;
  reference : string;
  premise : Premise.requirement;
  guarantee : string;
  alpha : float option;
  edge_exponent : float;
  params : (string * string) list;
  build : Prng.t -> Graph.t -> Dc.t;
}

(* One record per construction.  Everything a consumer layer needs — CLI
   parsing, premise validation, guarantee display, bench sweeps, the edge
   normalization exponent, the build itself and the label its Dc.t reports
   under — reads from here; adding a construction is a one-record diff. *)
let entry ?(aliases = []) ?alpha ?(params = []) ~name ~reference ~premise ~guarantee
    ~edge_exponent build =
  { name; aliases; reference; premise; guarantee; alpha; edge_exponent; params; build }

(* A distance-only spanner, routed by random shortest paths in H (the
   [25]-substitute for permutation routing on bounded-degree expanders). *)
let shortest_paths label spanner rng g =
  Dc.of_sp_router ~name:label ~graph:g ~spanner:(spanner rng g)

let all =
  [
    entry ~name:"theorem2" ~aliases:[ "expander" ]
      ~reference:"Table 1 row 1 (Theorem 2)" ~premise:Premise.Theorem2 ~alpha:3.0
      ~edge_exponent:(5.0 /. 3.0)
      ~guarantee:"(3, O(log^2 n)) with O(n^{5/3}) edges on dense regular expanders"
      (fun rng g -> Expander_dc.to_dc (Expander_dc.build rng g) g);
    entry ~name:"bounded-degree" ~aliases:[ "becchetti" ]
      ~reference:"Table 1 row 2 ([5]-substitute)" ~premise:Premise.Expander ~edge_exponent:1.0
      ~guarantee:"(O(log n), O(log^3 n)) with O(n) edges on dense expanders"
      (shortest_paths "bounded-deg[5]" (fun rng g ->
           (Sparsify.bounded_degree rng g).Sparsify.spanner));
    entry ~name:"spectral" ~aliases:[ "koutis-xu" ]
      ~reference:"Table 1 row 3 ([16]-substitute)" ~premise:Premise.Expander ~edge_exponent:1.0
      ~guarantee:"(O(log n), O(log^4 n)) with O(n log n) edges on expanders"
      (shortest_paths "spectral[16]" (fun rng g -> (Sparsify.spectral rng g).Sparsify.spanner));
    entry ~name:"algorithm1" ~aliases:[ "theorem3" ]
      ~reference:"Table 1 row 4 (Theorem 3, Algorithm 1)" ~premise:Premise.Theorem3 ~alpha:3.0
      ~edge_exponent:(5.0 /. 3.0)
      ~guarantee:"(3, O(sqrt(D) log n)) with O(n^{5/3} log^2 n) edges on D-regular, D >= n^{2/3}"
      (fun rng g -> Regular_dc.to_dc (Regular_dc.build rng g) g);
    entry ~name:"greedy" ~aliases:[ "greedy-3" ]
      ~reference:"baseline [ADDJS93] (distance-only)" ~premise:Premise.Any ~alpha:3.0
      ~edge_exponent:1.5
      ~params:[ ("k", "2") ]
      ~guarantee:"(3, unbounded) with O(n^{1+1/2}) edges"
      (shortest_paths "greedy-3" (fun _ g -> Classic.greedy g ~k:2));
    entry ~name:"baswana-sen" ~aliases:[ "baswana-sen-weighted"; "bsw" ]
      ~reference:"baseline [BS07] (distance-only)" ~premise:Premise.Any ~alpha:3.0
      ~edge_exponent:1.5
      ~params:[ ("k", "2") ]
      ~guarantee:"(3, unbounded) with O(n^{3/2}) edges; weighted: d_H <= 3*w per edge"
      (shortest_paths "baswana-sen" (Baswana_sen_weighted.build ~k:2));
    entry ~name:"elkin-neiman" ~aliases:[ "en" ]
      ~reference:"baseline [EN17] (distance-only, O(m) expected time)" ~premise:Premise.Any
      ~alpha:3.0 ~edge_exponent:1.5
      ~params:[ ("k", "2") ]
      ~guarantee:"(3, unbounded) with O(n^{3/2}) edges in O(m) expected time"
      (shortest_paths "elkin-neiman" (fun rng g ->
           (Elkin_neiman.build rng g).Elkin_neiman.spanner));
    entry ~name:"khop-5" ~aliases:[ "khop3" ]
      ~reference:"Section 8 open problem (k-hop, k = 3)" ~premise:Premise.Any ~alpha:5.0
      ~edge_exponent:(1.0 +. (1.0 /. 3.0))
      ~params:[ ("k", "3") ]
      ~guarantee:"(5, measured) with ~n*D^{1/3} edges; exploratory (Section 8)"
      (fun rng g -> Khop_dc.to_dc (Khop_dc.build ~k:3 rng g) g);
    entry ~name:"khop-7" ~aliases:[ "khop4" ]
      ~reference:"Section 8 open problem (k-hop, k = 4)" ~premise:Premise.Any ~alpha:7.0
      ~edge_exponent:1.25
      ~params:[ ("k", "4") ]
      ~guarantee:"(7, measured) with ~n*D^{1/4} edges; exploratory (Section 8)"
      (fun rng g -> Khop_dc.to_dc (Khop_dc.build ~k:4 rng g) g);
    entry ~name:"irregular"
      ~reference:"Section 8 open problem (degree-local Algorithm 1)" ~premise:Premise.Any
      ~alpha:3.0 ~edge_exponent:(5.0 /. 3.0)
      ~guarantee:"(3, measured) degree-local Algorithm 1; exploratory (Section 8)"
      (fun rng g -> Irregular_dc.to_dc (Irregular_dc.build rng g) g);
  ]

let names = List.map (fun c -> c.name) all

let all_names = List.concat_map (fun c -> c.name :: c.aliases) all

let matches query c =
  let q = String.lowercase_ascii query in
  String.lowercase_ascii c.name = q
  || List.exists (fun a -> String.lowercase_ascii a = q) c.aliases

let expected = String.concat " | " names

let find query =
  match List.find_opt (matches query) all with
  | Some c -> Ok c
  | None ->
      Error (Printf.sprintf "unknown algorithm %S (expected %s)" query (String.concat " | " all_names))

let find_exn query =
  match find query with Ok c -> c | Error msg -> invalid_arg ("Construction.find_exn: " ^ msg)

let build c = c.build

let premise_ok c p = Premise.satisfied c.premise p

let premise_warnings c g =
  match c.premise with
  | Premise.Any -> []
  | req ->
      let p = Premise.check g in
      if Premise.satisfied req p then []
      else begin
        let vs = Premise.violations req p in
        (* structured channel for the same warnings callers print: a sweep
           over many graphs can grep the JSONL for premise.violation *)
        List.iter
          (fun v ->
            Log.warn ~fields:[ ("construction", c.name); ("violation", v) ] "premise.violation")
          vs;
        vs
      end

let accepting p = List.filter (fun c -> premise_ok c p) all

let params_text c =
  match c.params with
  | [] -> "-"
  | ps -> String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) ps)

let to_json () =
  let entry_json c =
    Printf.sprintf
      "{\"name\":\"%s\",\"aliases\":[%s],\"reference\":\"%s\",\"premise\":\"%s\",\"guarantee\":\"%s\",\"alpha\":%s,\"edge_exponent\":%s,\"params\":{%s}}"
      (Obs.json_escape c.name)
      (String.concat "," (List.map (fun a -> "\"" ^ Obs.json_escape a ^ "\"") c.aliases))
      (Obs.json_escape c.reference)
      (Obs.json_escape (Premise.requirement_text c.premise))
      (Obs.json_escape c.guarantee)
      (match c.alpha with None -> "null" | Some a -> Obs.json_float a)
      (Obs.json_float c.edge_exponent)
      (String.concat ","
         (List.map
            (fun (k, v) ->
              Printf.sprintf "\"%s\":\"%s\"" (Obs.json_escape k) (Obs.json_escape v))
            c.params))
  in
  Printf.sprintf "{\"constructions\":[%s]}\n" (String.concat "," (List.map entry_json all))
