let norm u v = if u < v then (u, v) else (v, u)

let edge_coin ~seed ~p u v =
  let u, v = norm u v in
  let mix = (Hashtbl.hash (seed, u, v, 'e') lsl 31) lxor Hashtbl.hash (v, u, seed, 0x7e2) in
  Prng.bool (Prng.create mix) p

(* Deterministic per-request candidate choice shared by both sides. *)
let pick_index ~seed u v count =
  if count <= 0 then -1
  else begin
    let mix = (Hashtbl.hash (seed, v, u, 'r') lsl 29) lxor Hashtbl.hash (u, seed, v, 0x95c) in
    Prng.int (Prng.create mix) count
  end

(* The centralized router's candidate computation, run over any graph view
   that contains the 2-hop ball of (u, v): identical code for local and full
   knowledge, which is what makes the equality assertion meaningful. *)
let route_one view ~sampled ~seed (u, v) =
  if sampled u v then [| u; v |]
  else begin
    let cands = Expander_dc.candidates view ~sampled u v in
    let idx = pick_index ~seed u v (Array.length cands) in
    if idx < 0 then [||] (* no surviving candidate: reported as empty *)
    else cands.(idx)
  end

let reference ~seed g pairs =
  let p = Expander_dc.default_p g in
  let spanner = Graph.empty_like g in
  Graph.iter_edges g (fun u v ->
      if edge_coin ~seed ~p u v then ignore (Graph.add_edge spanner u v));
  let sampled x y = Graph.mem_edge spanner x y in
  let routing = Array.map (route_one g ~sampled ~seed) pairs in
  (spanner, routing)

(* ---- LOCAL protocol ---- *)

type state = {
  know : (int * int, bool) Hashtbl.t;
  mutable fresh : (int * int * bool) list;
  mutable answers : ((int * int) * Routing.path) list;
}

type result = { spanner : Graph.t; routing : Routing.routing; rounds : int; messages : int }

let run ~seed g pairs =
  let n = Graph.n g in
  let p = Expander_dc.default_p g in
  Array.iter
    (fun (u, v) ->
      if not (Graph.mem_edge g u v) then
        invalid_arg "Dist_expander.run: request pairs must be graph edges")
    pairs;
  (* requests owned by their source *)
  let owned = Array.make n [] in
  Array.iter (fun (u, v) -> owned.(u) <- (u, v) :: owned.(u)) pairs;
  let init _ = { know = Hashtbl.create 64; fresh = []; answers = [] } in
  let learn st (u, v, flag) =
    if not (Hashtbl.mem st.know (u, v)) then begin
      Hashtbl.replace st.know (u, v) flag;
      st.fresh <- (u, v, flag) :: st.fresh
    end
  in
  let step ~round ~me ~neighbors st inbox =
    List.iter (fun (_, entries) -> List.iter (learn st) entries) inbox;
    match round with
    | 0 ->
        Array.iter (fun v -> if me < v then learn st (me, v, edge_coin ~seed ~p me v)) neighbors;
        let fresh = st.fresh in
        st.fresh <- [];
        (st, Array.to_list (Array.map (fun v -> (v, fresh)) neighbors))
    | 1 | 2 ->
        let fresh = st.fresh in
        st.fresh <- [];
        if fresh = [] then (st, [])
        else (st, Array.to_list (Array.map (fun v -> (v, fresh)) neighbors))
    | 3 ->
        (* local view: a graph over the global id space holding the ball *)
        if owned.(me) <> [] then begin
          let view = Graph.create n in
          Hashtbl.iter (fun (u, v) _ -> ignore (Graph.add_edge view u v)) st.know;
          let sampled x y =
            match Hashtbl.find_opt st.know (norm x y) with Some f -> f | None -> false
          in
          List.iter
            (fun req -> st.answers <- (req, route_one view ~sampled ~seed req) :: st.answers)
            owned.(me)
        end;
        (st, [])
    | _ -> (st, [])
  in
  let states, stats = Local_model.run g ~rounds:4 ~init ~step in
  (* assemble the spanner from the authoritative owner knowledge *)
  let spanner = Graph.empty_like g in
  Array.iteri
    (fun me st ->
      Hashtbl.iter
        (fun (u, v) flag -> if u = me && flag then ignore (Graph.add_edge spanner u v))
        st.know)
    states;
  let answer_map = Hashtbl.create (Array.length pairs) in
  Array.iter
    (fun st -> List.iter (fun (req, path) -> Hashtbl.replace answer_map req path) st.answers)
    states;
  let routing =
    Array.map
      (fun req ->
        match Hashtbl.find_opt answer_map req with
        | Some p -> p
        | None -> invalid_arg "Dist_expander.run: request not answered")
      pairs
  in
  { spanner; routing; rounds = stats.Local_model.rounds; messages = stats.Local_model.messages }
