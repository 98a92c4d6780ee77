let norm u v = if u < v then (u, v) else (v, u)

(* Per-edge coin: a public function of (seed, u, v), so every node can
   evaluate it for any edge it knows without communication, modelling
   shared randomness. *)
let edge_coin ~seed ~rho u v =
  let u, v = norm u v in
  let mix = (Hashtbl.hash (seed, u, v) lsl 31) lxor Hashtbl.hash (v, 0x5bd1e995, u, seed) in
  let rng = Prng.create mix in
  Prng.bool rng rho

type msg =
  | Edges of (int * int) list  (* edges of G, smaller endpoint first *)
  | Decision of int * int * bool  (* (u, v, in_h) from the deciding endpoint *)

type state = {
  known : Graph.t;  (* the edges of G this node has learned *)
  mutable fresh : (int * int) list;  (* learned last round, to flood *)
  mutable decisions : (int * int * bool) list;  (* for edges this node owns *)
  mutable heard : (int * int * bool) list;  (* decisions received from owners *)
  mutable entries_sent : int;
}

type result = { spanner : Graph.t; sampled : Graph.t; rounds : int; messages : int; entries : int }

let learn st (u, v) = if Graph.add_edge st.known u v then st.fresh <- (u, v) :: st.fresh

let send_fresh st neighbors =
  let fresh = st.fresh in
  st.fresh <- [];
  st.entries_sent <- st.entries_sent + (List.length fresh * Array.length neighbors);
  (st, Array.to_list (Array.map (fun v -> (v, Edges fresh)) neighbors))

let run ?(thresholds = Regular_dc.Scaled) ~seed g =
  if Graph.is_weighted g then invalid_arg "Dist_spanner.run: the graph must be unweighted";
  let n = Graph.n g in
  (* n and Δ are global knowledge, as in Regular_dc.build *)
  let rho = Regular_dc.sampling_rate g in
  let a, b = Regular_dc.support_thresholds thresholds g in
  let coin u v = edge_coin ~seed ~rho u v in
  let init _ =
    { known = Graph.create n; fresh = []; decisions = []; heard = []; entries_sent = 0 }
  in
  let step ~round ~me ~neighbors st inbox =
    List.iter
      (fun (_, msg) ->
        match msg with
        | Edges edges -> List.iter (learn st) edges
        | Decision (u, v, in_h) -> st.heard <- (u, v, in_h) :: st.heard)
      inbox;
    match round with
    | 0 ->
        (* Announce the edges this node owns (me < neighbor), even none. *)
        Array.iter (fun v -> if me < v then learn st (me, v)) neighbors;
        send_fresh st neighbors
    | 1 | 2 -> if st.fresh = [] then (st, []) else send_fresh st neighbors
    | 3 ->
        (* This node now knows every edge owned within distance 3, hence
           every edge incident to its 2-ball: run Algorithm 1's pass on
           them and tell each owned edge's partner. *)
        let h, _, _ =
          Regular_dc.of_sample st.known ~sampled:(Graph.filter_edges st.known coin) ~a ~b
        in
        let outbox = ref [] in
        Array.iter
          (fun v ->
            if me < v then begin
              let in_h = Graph.mem_edge h me v in
              st.decisions <- (me, v, in_h) :: st.decisions;
              outbox := (v, Decision (me, v, in_h)) :: !outbox
            end)
          neighbors;
        (st, !outbox)
    | _ -> (st, [])
  in
  let states, stats = Local_model.run g ~rounds:5 ~init ~step in
  let spanner = Graph.empty_like g in
  Array.iter
    (fun st ->
      List.iter (fun (u, v, in_h) -> if in_h then ignore (Graph.add_edge spanner u v)) st.decisions)
    states;
  (* Cross-check: every non-owner heard exactly its owner's decision, and
     the assembled spanner agrees with it (owners are the only writers, so
     membership must equal the announced bit in both directions). *)
  Array.iteri
    (fun me st ->
      List.iter
        (fun (u, v, in_h) ->
          assert (v = me);
          assert (Graph.mem_edge spanner u v = in_h))
        st.heard)
    states;
  let entries = Array.fold_left (fun acc st -> acc + st.entries_sent) 0 states in
  {
    spanner;
    sampled = Graph.filter_edges g coin;
    rounds = stats.Local_model.rounds;
    messages = stats.Local_model.messages;
    entries;
  }
