(* Churn batches are drawn against a scratch copy of the current state, so
   every generated event is applicable in sequence (no duplicate deletes, no
   re-adds of existing edges) and the whole batch is a pure function of the
   generator seed and the pre-batch graphs — the determinism contract of
   HACKING.md.  The three kinds mirror the Fault_plan generator family:
   uniform background churn, an adversary aiming at the routing's hot spots
   (the congestion-stretch threat model), and a structural attack on the
   spanner's own hub edges. *)

type event =
  | Add_edge of int * int
  | Del_edge of int * int
  | Isolate of int

type kind = Uniform | Adversarial | Targeted

let kind_name = function
  | Uniform -> "uniform"
  | Adversarial -> "adversarial"
  | Targeted -> "targeted"

let kind_of_string s =
  match String.lowercase_ascii s with
  | "uniform" -> Some Uniform
  | "adversarial" -> Some Adversarial
  | "targeted" -> Some Targeted
  | _ -> None

let norm u v = if u < v then (u, v) else (v, u)

(* rejection-sample a non-edge of [scratch]; None when the graph is (nearly)
   complete and 64 draws all collide *)
let draw_add scratch rng =
  let n = Graph.n scratch in
  if n < 2 then None
  else begin
    let found = ref None and attempts = ref 64 in
    while !found = None && !attempts > 0 do
      decr attempts;
      let u = Prng.int rng n and v = Prng.int rng n in
      if u <> v && not (Graph.mem_edge scratch u v) then found := Some (norm u v)
    done;
    !found
  end

(* A uniform edge of [scratch] by rank: the [k]-th in ascending [(u, v)]
   order for one draw [k].  Sources are walked in ascending order counting
   their neighbours [v > u], then the row holding the [k]-th edge is walked,
   ascending, to its [k]-th neighbour above [u]. *)
let draw_del scratch rng =
  let m = Graph.m scratch in
  if m = 0 then None
  else begin
    let count u = Graph.fold_neighbors scratch u (fun c v -> if v > u then c + 1 else c) 0 in
    let k = ref (Prng.int rng m) and u = ref 0 in
    let c = ref (count 0) in
    while !k >= !c do
      k := !k - !c;
      incr u;
      c := count !u
    done;
    let u = !u and picked = ref (-1) in
    Graph.iter_neighbors scratch u (fun v ->
        if v > u && !picked < 0 then if !k = 0 then picked := v else decr k);
    Some (u, !picked)
  end

let draw_isolate scratch rng =
  let n = Graph.n scratch in
  let live = ref [] in
  for v = n - 1 downto 0 do
    if Graph.degree scratch v > 0 then live := v :: !live
  done;
  match !live with [] -> None | l -> Some (Prng.pick rng (Array.of_list l))

(* the score-maximizing edge of [scratch]; ties keep the smallest [(u, v)] *)
let hottest_edge scratch score =
  let best = ref None in
  Graph.iter_edges scratch (fun u v ->
      let s = score u + score v in
      match !best with
      | Some (s', _, _) when s' >= s -> ()
      | _ -> best := Some (s, u, v));
  match !best with None -> None | Some (_, u, v) -> Some (u, v)

(* the score-maximizing non-isolated node (ties: smallest id); falls back to
   degree when every live node scores 0 *)
let hottest_node scratch score =
  let n = Graph.n scratch in
  let best = ref None in
  let consider by =
    for v = 0 to n - 1 do
      if Graph.degree scratch v > 0 then
        match !best with
        | Some (s, _) when s >= by v -> ()
        | _ -> best := Some (by v, v)
    done
  in
  consider score;
  (match !best with Some (0, _) -> best := None | _ -> ());
  if !best = None then consider (Graph.degree scratch);
  match !best with None -> None | Some (_, v) -> Some v

let check_loads n loads =
  if Array.length loads <> n then
    invalid_arg "Churn_gen.generate: loads length does not match node count"

let generate kind rng ~g ~h ~loads ~count =
  if count < 0 then invalid_arg "Churn_gen.generate: negative count";
  if Graph.n g <> Graph.n h then invalid_arg "Churn_gen.generate: node counts differ";
  check_loads (Graph.n g) loads;
  let gs = Graph.copy g and hs = Graph.copy h in
  let apply_scratch = function
    | Add_edge (u, v) -> ignore (Graph.add_edge gs u v)
    | Del_edge (u, v) ->
        ignore (Graph.remove_edge hs u v);
        ignore (Graph.remove_edge gs u v)
    | Isolate v ->
        ignore (Graph.isolate hs v);
        ignore (Graph.isolate gs v)
  in
  let load v = loads.(v) in
  let events = ref [] in
  for _ = 1 to count do
    let r = Prng.float rng in
    let ev =
      match kind with
      | Uniform ->
          (* an isolation cuts ~avg-degree edges at once, so its share is
             kept small; the mix self-stabilizes where the per-event edge
             drain (0.40 + 0.05 * avg_degree) meets the 0.55 add share *)
          if r < 0.55 then Option.map (fun (u, v) -> Add_edge (u, v)) (draw_add gs rng)
          else if r < 0.95 then
            Option.map (fun (u, v) -> Del_edge (u, v)) (draw_del gs rng)
          else Option.map (fun v -> Isolate v) (draw_isolate gs rng)
      | Adversarial ->
          (* destruction aims at the routing's hot spots; the add share is
             the background maintenance that keeps the soak sustained *)
          if r < 0.30 then Option.map (fun (u, v) -> Add_edge (u, v)) (draw_add gs rng)
          else if r < 0.80 then
            let scratch = if Graph.m hs > 0 then hs else gs in
            Option.map (fun (u, v) -> Del_edge (u, v)) (hottest_edge scratch load)
          else Option.map (fun v -> Isolate v) (hottest_node gs load)
      | Targeted ->
          (* attack the spanner's own hub edges: maximal recertification
             pressure per deleted edge *)
          if r < 0.35 then Option.map (fun (u, v) -> Add_edge (u, v)) (draw_add gs rng)
          else if r < 0.90 then
            let scratch = if Graph.m hs > 0 then hs else gs in
            Option.map (fun (u, v) -> Del_edge (u, v)) (hottest_edge scratch (Graph.degree hs))
          else Option.map (fun v -> Isolate v) (hottest_node hs (Graph.degree hs))
    in
    match ev with
    | None -> ()
    | Some ev ->
        apply_scratch ev;
        events := ev :: !events
  done;
  List.rev !events

let to_fault_plan ?(round = 1) ~network events =
  let n = Graph.n network in
  let faults =
    List.filter_map
      (function
        | Del_edge (u, v) when Graph.mem_edge network u v ->
            Some (Fault_plan.Fail_edge (u, v))
        | Isolate v -> Some (Fault_plan.Fail_node v)
        | Del_edge _ | Add_edge _ -> None)
      events
  in
  Fault_plan.schedule ~n [ (round, faults) ]

type applied = {
  ap_touched : int array;
  ap_added : int;
  ap_deleted : int;
  ap_isolated : int;
}

let apply ~g ~h events =
  let n = Graph.n g in
  if Graph.n h <> n then invalid_arg "Churn_gen.apply: node counts differ";
  let marked = Array.make n false in
  let touched = ref [] in
  let mark v =
    if v < 0 || v >= n then invalid_arg "Churn_gen.apply: node out of range";
    if not marked.(v) then begin
      marked.(v) <- true;
      touched := v :: !touched
    end
  in
  let added = ref 0 and deleted = ref 0 and isolated = ref 0 in
  List.iter
    (fun ev ->
      match ev with
      | Add_edge (u, v) ->
          mark u;
          mark v;
          if u = v then invalid_arg "Churn_gen.apply: self-loop";
          if Graph.add_edge g u v then incr added
      | Del_edge (u, v) ->
          mark u;
          mark v;
          let in_h = Graph.remove_edge h u v in
          let in_g = Graph.remove_edge g u v in
          if in_h || in_g then incr deleted
      | Isolate v ->
          mark v;
          (* collect the neighbourhood BEFORE cutting: those nodes lose an
             incident edge and must enter the dirty seed set *)
          Graph.iter_neighbors g v mark;
          Graph.iter_neighbors h v mark;
          let cut = Graph.isolate g v + Graph.isolate h v in
          if cut > 0 then incr isolated)
    events;
  let touched = Array.of_list !touched in
  Array.sort compare touched;
  { ap_touched = touched; ap_added = !added; ap_deleted = !deleted; ap_isolated = !isolated }
