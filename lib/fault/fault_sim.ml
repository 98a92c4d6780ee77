type stats = {
  delivered : int;
  dropped : int;
  retransmits : int;
  reroutes : int;
  makespan : int;
  max_queue : int;
  avg_latency : float;
  congestion : int;
  dilation : int;
  forward_load : int;
  failed_nodes : int;
  failed_edges : int;
}

type packet = {
  id : int;
  mutable path : Routing.path;
  mutable pos : int;
  mutable attempts : int;  (** retransmissions consumed so far *)
}

let remaining p = Array.length p.path - 1 - p.pos

let m_rounds = Metrics.counter "fault_sim.rounds"
let m_retransmits = Metrics.counter "fault_sim.retransmits"
let m_reroutes = Metrics.counter "fault_sim.reroutes"
let m_dropped = Metrics.counter "fault_sim.dropped"
let m_losses = Metrics.counter "fault_sim.losses"
let m_node_faults = Metrics.counter "fault_sim.node_faults"
let m_edge_faults = Metrics.counter "fault_sim.edge_faults"

let run ?(timeout = 4) ?(max_attempts = 5) ?(backoff_cap = 64) ~n ~network ~plan routing =
  Trace.with_span ~name:"fault_sim.run" @@ fun () ->
  Array.iter
    (fun p -> if Array.length p = 0 then invalid_arg "Fault_sim.run: empty path")
    routing;
  if timeout < 1 then invalid_arg "Fault_sim.run: timeout < 1";
  if max_attempts < 0 then invalid_arg "Fault_sim.run: negative max_attempts";
  if backoff_cap < 1 then invalid_arg "Fault_sim.run: backoff_cap < 1";
  if Fault_plan.n plan <> n then invalid_arg "Fault_sim.run: plan node count differs";
  let k = Array.length routing in
  (* workload invariants of the *original* routing, as in Packet_sim *)
  let congestion = Routing.congestion ~n routing in
  let dilation = Array.fold_left (fun acc p -> max acc (Routing.length p)) 0 routing in
  let forward_load =
    let loads = Array.make n 0 in
    Array.iter
      (fun path ->
        let seen = Hashtbl.create 8 in
        for i = 0 to Array.length path - 2 do
          if not (Hashtbl.mem seen path.(i)) then begin
            Hashtbl.add seen path.(i) ();
            loads.(path.(i)) <- loads.(path.(i)) + 1
          end
        done)
      routing;
    Array.fold_left max 0 loads
  in
  (* fault state: [alive]/[removed] answer liveness queries on the hot path;
     [survivor] mirrors them as a graph for BFS reroutes ([Graph.snapshot]'s
     version cache rebuilds its CSR only when the survivor changed since the
     last reroute) *)
  let alive = Array.make n true in
  let removed = Hashtbl.create 16 in
  let survivor = Graph.copy network in
  let edge_key u v = if u < v then (u, v) else (v, u) in
  let link_ok u v = alive.(v) && not (Hashtbl.mem removed (edge_key u v)) in
  let failed_nodes = ref 0 and failed_edges = ref 0 in
  let apply_fault = function
    | Fault_plan.Fail_node v ->
        if alive.(v) then begin
          alive.(v) <- false;
          incr failed_nodes;
          Metrics.incr m_node_faults;
          ignore (Graph.isolate survivor v)
        end
    | Fault_plan.Fail_edge (u, v) ->
        if not (Hashtbl.mem removed (edge_key u v)) then begin
          Hashtbl.replace removed (edge_key u v) ();
          incr failed_edges;
          Metrics.incr m_edge_faults;
          ignore (Graph.remove_edge survivor u v)
        end
  in
  let csr () = Graph.snapshot survivor in
  (* packet state *)
  let delivery = Array.make k (-1) in
  let queues = Array.make n [] in
  let retries : (int, packet list) Hashtbl.t = Hashtbl.create 16 in
  let pending = ref 0 in
  let dropped = ref 0 in
  let retransmits = ref 0 in
  let reroutes = ref 0 in
  Array.iteri
    (fun id path ->
      let p = { id; path; pos = 0; attempts = 0 } in
      if remaining p = 0 then delivery.(id) <- 0
      else begin
        queues.(path.(0)) <- p :: queues.(path.(0));
        incr pending
      end)
    routing;
  let max_queue = ref (Array.fold_left (fun acc q -> max acc (List.length q)) 0 queues) in
  let round = ref 0 in
  let drop p =
    incr dropped;
    decr pending;
    Metrics.incr m_dropped;
    Log.warn
      ~fields:[ ("packet", string_of_int p.id); ("attempts", string_of_int p.attempts) ]
      "fault_sim.drop"
  in
  (* a lost packet: schedule a retransmission with capped exponential
     backoff, or drop it when the attempt budget is spent *)
  let lose p =
    Metrics.incr m_losses;
    if p.attempts >= max_attempts then drop p
    else begin
      p.attempts <- p.attempts + 1;
      let backoff =
        (* timeout * 2^(attempts-1), saturating at backoff_cap *)
        let b = ref timeout in
        for _ = 2 to p.attempts do
          b := min backoff_cap (!b * 2)
        done;
        min backoff_cap !b
      in
      let due = !round + backoff in
      let prev = Option.value (Hashtbl.find_opt retries due) ~default:[] in
      Hashtbl.replace retries due (p :: prev)
    end
  in
  (* the original path is usable iff every node is alive and every hop link
     still exists *)
  let path_intact path =
    let ok = ref (alive.(path.(0))) in
    for i = 0 to Array.length path - 2 do
      if !ok && not (link_ok path.(i) path.(i + 1)) then ok := false
    done;
    !ok
  in
  (* re-inject a due packet at its source, rerouting if the original path
     broke; drop when the endpoints are dead or no survivor path exists *)
  let reinject p =
    let original = routing.(p.id) in
    let src = original.(0) and dst = original.(Array.length original - 1) in
    if not (alive.(src) && alive.(dst)) then drop p
    else if path_intact original then begin
      p.path <- original;
      p.pos <- 0;
      incr retransmits;
      Metrics.incr m_retransmits;
      queues.(src) <- p :: queues.(src)
    end
    else
      match Bfs.shortest_path (csr ()) src dst with
      | None -> drop p
      | Some path ->
          p.path <- path;
          p.pos <- 0;
          incr retransmits;
          incr reroutes;
          Metrics.incr m_retransmits;
          Metrics.incr m_reroutes;
          if Log.enabled Log.Debug then
            Log.debug
              ~fields:
                [ ("packet", string_of_int p.id); ("hops", string_of_int (Array.length path - 1)) ]
              "fault_sim.reroute";
          queues.(src) <- p :: queues.(src)
  in
  (* Greedy schedules finish within C*D + D; faulted runs additionally pay
     for retransmission waves (reroutes are <= n hops) and backoff waits.
     The guard is a safety net — a run that exceeds it drops what is left. *)
  let base_guard = (congestion * dilation) + dilation + 1 in
  let guard =
    if Fault_plan.is_empty plan then base_guard
    else
      Fault_plan.last_round plan
      + ((base_guard + (congestion * n) + backoff_cap) * (max_attempts + 2))
  in
  let events = ref (Fault_plan.events plan) in
  while !pending > 0 && !round <= guard do
    incr round;
    (* 1. faults scheduled for this round strike *)
    (match !events with
    | (r, faults) :: rest when r = !round ->
        List.iter
          (fun f ->
            apply_fault f;
            if Log.enabled Log.Info then
              match f with
              | Fault_plan.Fail_node v ->
                  Log.info
                    ~fields:[ ("round", string_of_int r); ("node", string_of_int v) ]
                    "fault.node"
              | Fault_plan.Fail_edge (u, v) ->
                  Log.info
                    ~fields:
                      [ ("round", string_of_int r); ("edge", Printf.sprintf "%d-%d" u v) ]
                    "fault.edge")
          faults;
        events := rest;
        (* packets queued at nodes that just died are lost *)
        for v = 0 to n - 1 do
          if (not alive.(v)) && queues.(v) <> [] then begin
            let victims = queues.(v) in
            queues.(v) <- [];
            (* ascending id order so loss handling is canonical *)
            List.iter lose (List.sort (fun a b -> compare a.id b.id) victims)
          end
        done
    | _ -> ());
    (* 2. retransmissions due this round re-enter their source queue *)
    (match Hashtbl.find_opt retries !round with
    | None -> ()
    | Some due ->
        Hashtbl.remove retries !round;
        List.iter reinject (List.sort (fun a b -> compare a.id b.id) due));
    (* 3. forwarding sweep — identical to Packet_sim: each node forwards its
       furthest-to-go packet (ties by id); a transmission into a failure
       burns the slot and loses the packet *)
    let arrivals = ref [] in
    for v = 0 to n - 1 do
      match queues.(v) with
      | [] -> ()
      | q ->
          let best =
            List.fold_left
              (fun acc p ->
                match acc with
                | None -> Some p
                | Some b ->
                    if
                      remaining p > remaining b
                      || (remaining p = remaining b && p.id < b.id)
                    then Some p
                    else acc)
              None q
          in
          (match best with
          | None -> ()
          | Some p ->
              queues.(v) <- List.filter (fun q -> q.id <> p.id) q;
              let next = p.path.(p.pos + 1) in
              if not (link_ok v next) then lose p
              else begin
                p.pos <- p.pos + 1;
                if remaining p = 0 then begin
                  delivery.(p.id) <- !round;
                  decr pending
                end
                else arrivals := p :: !arrivals
              end)
    done;
    List.iter (fun p -> queues.(p.path.(p.pos)) <- p :: queues.(p.path.(p.pos))) !arrivals;
    let widest = Array.fold_left (fun acc q -> max acc (List.length q)) 0 queues in
    max_queue := max !max_queue widest;
    Metrics.incr m_rounds
  done;
  if !pending > 0 then begin
    (* guard tripped (can only happen under faults): whatever is still in
       flight or awaiting retransmission counts as dropped *)
    dropped := !dropped + !pending;
    Metrics.add m_dropped !pending;
    Log.warn
      ~fields:[ ("round", string_of_int !round); ("pending", string_of_int !pending) ]
      "fault_sim.guard_tripped";
    pending := 0
  end;
  let delivered = ref 0 in
  let makespan = ref 0 in
  let latency_sum = ref 0.0 in
  Array.iter
    (fun d ->
      if d >= 0 then begin
        incr delivered;
        makespan := max !makespan d;
        latency_sum := !latency_sum +. float_of_int d
      end)
    delivery;
  let avg_latency = if !delivered = 0 then 0.0 else !latency_sum /. float_of_int !delivered in
  {
    delivered = !delivered;
    dropped = !dropped;
    retransmits = !retransmits;
    reroutes = !reroutes;
    makespan = !makespan;
    max_queue = !max_queue;
    avg_latency;
    congestion;
    dilation;
    forward_load;
    failed_nodes = !failed_nodes;
    failed_edges = !failed_edges;
  }

let base_stats s =
  {
    Packet_sim.makespan = s.makespan;
    max_queue = s.max_queue;
    avg_latency = s.avg_latency;
    congestion = s.congestion;
    dilation = s.dilation;
    forward_load = s.forward_load;
  }
