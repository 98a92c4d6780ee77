(* The soak loop maintains the paper's distance-stretch guarantee as an
   invariant over time rather than a one-shot certificate.  Each batch:

   1. sample traffic inside the current spanner's components and route it
      ({!Sp_routing.route_random});
   2. play the batch's destructive events as a {!Fault_plan} against that
      in-flight traffic ({!Fault_sim.run}) — packets keep flowing while the
      network degrades;
   3. apply the batch to [g] and [h], collecting the touched endpoints;
   4. heal: iterate {!Stretch.violations_incremental}, re-adding every
      violating removed edge, until no violation remains.  Adding edges only
      shortens spanner distances, so the second pass (seeded by the added
      endpoints) terminates the loop; an empty violation set also implies
      per-[g]-component connectivity, because a [g]-edge crossing two
      [h]-components is itself a violation.

   Determinism: the whole run is a function of the config (explicit
   SplitMix64 streams for events and traffic; Fault_sim consumes no
   randomness), so two runs with one seed produce byte-identical reports —
   wall-clock readings go only to the Metrics histograms, never into the
   report. *)

type config = {
  events : int;
  batch : int;
  seed : int;
  alpha : int;
  kind : Churn_gen.kind;
  requests : int;
  timeout : int;
  max_attempts : int;
}

let default =
  {
    events = 1000;
    batch = 50;
    seed = 1;
    alpha = 3;
    kind = Churn_gen.Uniform;
    requests = 16;
    timeout = 4;
    max_attempts = 5;
  }

type batch_stats = {
  bs_round : int;
  bs_events : int;  (** events generated for this batch *)
  bs_applied : int;  (** add + delete + isolate events that changed a graph *)
  bs_readded : int;
  bs_swept : int;
  bs_groups : int;
  bs_dirty : int;
  bs_delivered : int;
  bs_dropped : int;
  bs_retransmits : int;
  bs_reroutes : int;
  bs_makespan : int;
  bs_traffic_stretch : float;
  bs_dist_stretch : int;
  bs_certified : bool;
  bs_m_graph : int;
  bs_m_spanner : int;
}

type report = {
  r_kind : string;
  r_seed : int;
  r_alpha : int;
  r_events : int;
  r_batch : int;
  r_requests : int;
  r_batches : batch_stats list;  (** chronological *)
  r_events_generated : int;
  r_events_applied : int;
  r_edges_readded : int;
  r_swept : int;
  r_groups_total : int;
  r_delivered : int;
  r_dropped : int;
  r_retransmits : int;
  r_reroutes : int;
  r_certified_batches : int;
  r_batch_count : int;
  r_final_stretch : int;
  r_final_certified : bool;
  r_m_graph_start : int;
  r_m_graph_end : int;
  r_m_spanner_start : int;
  r_m_spanner_end : int;
}

let m_batches = Metrics.counter "churn.batches"
let m_events = Metrics.counter "churn.events"
let m_readded = Metrics.counter "churn.edges_readded"
let h_repair_us = Metrics.histo "churn.repair_us"
let h_staleness_us = Metrics.histo "churn.cert_staleness_us"

(* heal the spanner after a mutation batch: re-add every violating removed
   edge and re-certify incrementally until clean.  Returns
   (readded, swept, groups, dirty) accumulated over the healing passes. *)
let heal cert g h ~touched =
  let readded = ref 0 and swept = ref 0 and dirty = ref 0 and groups = ref 0 in
  let rec go touched =
    let r = Stretch.violations_incremental cert g h ~touched in
    swept := !swept + r.Stretch.inc_swept;
    dirty := !dirty + r.Stretch.inc_dirty;
    (* denominator of the sweep-saving ratio: what a from-scratch certifier
       would have re-swept on each pass; [swept <= groups] always holds *)
    groups := !groups + r.Stretch.inc_groups;
    match r.Stretch.inc_violations with
    | [] -> ()
    | viols ->
        let ends =
          List.fold_left
            (fun acc (u, v) ->
              ignore (Graph.add_edge ~weight:(Graph.edge_weight g u v) h u v);
              incr readded;
              u :: v :: acc)
            [] viols
        in
        go (Array.of_list ends)
  in
  go touched;
  (!readded, !swept, !groups, !dirty)

(* routing requests sampled within the spanner's components (so every
   request is routable); nodes in singleton components carry no traffic *)
let sample_problem rng h ~requests =
  let n = Graph.n h in
  if requests = 0 || n < 2 then [||]
  else begin
    let labels = Connectivity.components h in
    let ncomp = Array.fold_left (fun a c -> max a (c + 1)) 0 labels in
    let sizes = Array.make (max ncomp 1) 0 in
    Array.iter (fun c -> sizes.(c) <- sizes.(c) + 1) labels;
    let eligible = ref [] in
    for v = n - 1 downto 0 do
      if sizes.(labels.(v)) >= 2 then eligible := v :: !eligible
    done;
    match !eligible with
    | [] -> [||]
    | el ->
        let eligible = Array.of_list el in
        let members = Array.make ncomp [] in
        for v = n - 1 downto 0 do
          members.(labels.(v)) <- v :: members.(labels.(v))
        done;
        let members = Array.map Array.of_list members in
        Array.init requests (fun _ ->
            let src = Prng.pick rng eligible in
            let comp = members.(labels.(src)) in
            let rec draw () =
              let d = Prng.pick rng comp in
              if d = src then draw () else d
            in
            { Routing.src; dst = draw () })
  end

(* worst routed-path stretch vs the base graph: max over requests of
   l(path) / d_G(src, dst); 1.0 for an empty routing.  h ⊆ g keeps every
   ratio finite and >= 1. *)
let routed_stretch gc problem routing =
  let worst = ref 1.0 in
  Array.iteri
    (fun i path ->
      let { Routing.src; dst } = problem.(i) in
      let dg = Bfs.distance gc src dst in
      if dg > 0 then
        let r = float_of_int (Routing.length path) /. float_of_int dg in
        if r > !worst then worst := r)
    routing;
  !worst

let validate config =
  if config.events < 1 then invalid_arg "Soak.run: events < 1";
  if config.batch < 1 then invalid_arg "Soak.run: batch < 1";
  if config.alpha < 1 then invalid_arg "Soak.run: alpha < 1";
  if config.requests < 0 then invalid_arg "Soak.run: negative requests";
  if config.timeout < 1 then invalid_arg "Soak.run: timeout < 1";
  if config.max_attempts < 1 then invalid_arg "Soak.run: max_attempts < 1"

let run ?(on_batch = fun (_ : batch_stats) -> ()) config ~graph ~spanner =
  validate config;
  if Graph.n graph <> Graph.n spanner then invalid_arg "Soak.run: node counts differ";
  if not (Graph.is_subgraph spanner ~of_:graph) then
    invalid_arg "Soak.run: spanner is not a subgraph of the base graph";
  Trace.with_span ~name:"churn.soak" (fun () ->
      let g = Graph.copy graph and h = Graph.copy spanner in
      let n = Graph.n g in
      let master = Prng.create config.seed in
      let rng_events = Prng.split master in
      let rng_traffic = Prng.split master in
      let m_graph_start = Graph.m g and m_spanner_start = Graph.m h in
      (* establish the invariant before churning: heal any violation the
         input spanner arrives with (a certified construction adds nothing) *)
      let cert = Stretch.cert_create g h ~bound:config.alpha in
      let initial_readded =
        match Stretch.cert_violations cert with
        | [] -> 0
        | viols ->
            let ends =
              List.fold_left
                (fun acc (u, v) ->
                  ignore (Graph.add_edge ~weight:(Graph.edge_weight g u v) h u v);
                  u :: v :: acc)
                [] viols
            in
            let readded, _, _, _ = heal cert g h ~touched:(Array.of_list ends) in
            List.length viols + readded
      in
      let batches = ref [] in
      let generated = ref 0
      and applied = ref 0
      and readded = ref initial_readded
      and swept = ref 0
      and groups_total = ref 0
      and delivered = ref 0
      and dropped = ref 0
      and retransmits = ref 0
      and reroutes = ref 0
      and certified_batches = ref 0 in
      let nbatches = (config.events + config.batch - 1) / config.batch in
      for b = 1 to nbatches do
        let count = min config.batch (config.events - ((b - 1) * config.batch)) in
        let t_batch0 = Obs.now_us () in
        (* 1. traffic on the pre-batch spanner *)
        let problem = sample_problem rng_traffic h ~requests:config.requests in
        let routing =
          if Array.length problem = 0 then [||]
          else Sp_routing.route_random (Graph.snapshot h) rng_traffic problem
        in
        let traffic_stretch = routed_stretch (Graph.snapshot g) problem routing in
        let loads = Routing.node_loads ~n routing in
        (* 2. draw the batch; its destructive half degrades the traffic *)
        let events = Churn_gen.generate config.kind rng_events ~g ~h ~loads ~count in
        let plan = Churn_gen.to_fault_plan ~round:2 ~network:h events in
        let sim =
          Fault_sim.run ~timeout:config.timeout ~max_attempts:config.max_attempts ~n
            ~network:h ~plan routing
        in
        (* 3. commit the batch, 4. heal and re-certify incrementally *)
        let ap = Churn_gen.apply ~g ~h events in
        let t_repair0 = Obs.now_us () in
        let b_readded, b_swept, b_groups, b_dirty =
          heal cert g h ~touched:ap.Churn_gen.ap_touched
        in
        let t_done = Obs.now_us () in
        Metrics.observe h_repair_us (int_of_float (t_done -. t_repair0));
        Metrics.observe h_staleness_us (int_of_float (t_done -. t_batch0));
        let certified = Stretch.cert_violations cert = [] in
        let dist_stretch = Stretch.cert_stretch_bound cert in
        let nevents = List.length events in
        let stats =
          {
            bs_round = b;
            bs_events = nevents;
            bs_applied =
              ap.Churn_gen.ap_added + ap.Churn_gen.ap_deleted + ap.Churn_gen.ap_isolated;
            bs_readded = b_readded;
            bs_swept = b_swept;
            bs_groups = b_groups;
            bs_dirty = b_dirty;
            bs_delivered = sim.Fault_sim.delivered;
            bs_dropped = sim.Fault_sim.dropped;
            bs_retransmits = sim.Fault_sim.retransmits;
            bs_reroutes = sim.Fault_sim.reroutes;
            bs_makespan = sim.Fault_sim.makespan;
            bs_traffic_stretch = traffic_stretch;
            bs_dist_stretch = dist_stretch;
            bs_certified = certified;
            bs_m_graph = Graph.m g;
            bs_m_spanner = Graph.m h;
          }
        in
        Metrics.incr m_batches;
        Metrics.add m_events nevents;
        Metrics.add m_readded b_readded;
        Log.info "churn.batch"
          ~fields:
            [
              ("round", string_of_int b);
              ("events", string_of_int nevents);
              ("readded", string_of_int b_readded);
              ("swept", string_of_int b_swept);
              ("groups", string_of_int b_groups);
              ("certified", string_of_bool certified);
            ];
        if not certified then
          Log.warn "churn.uncertified"
            ~fields:[ ("round", string_of_int b); ("stretch", string_of_int dist_stretch) ];
        generated := !generated + nevents;
        applied := !applied + stats.bs_applied;
        readded := !readded + b_readded;
        swept := !swept + b_swept;
        groups_total := !groups_total + b_groups;
        delivered := !delivered + sim.Fault_sim.delivered;
        dropped := !dropped + sim.Fault_sim.dropped;
        retransmits := !retransmits + sim.Fault_sim.retransmits;
        reroutes := !reroutes + sim.Fault_sim.reroutes;
        if certified then incr certified_batches;
        batches := stats :: !batches;
        on_batch stats
      done;
      (* closing audit: a full non-incremental certificate of the end state,
         and H still a subgraph of G at G's weights *)
      let final_stretch = Stretch.exact g h in
      let final_certified = final_stretch <= config.alpha && Graph.is_subgraph h ~of_:g in
      {
        r_kind = Churn_gen.kind_name config.kind;
        r_seed = config.seed;
        r_alpha = config.alpha;
        r_events = config.events;
        r_batch = config.batch;
        r_requests = config.requests;
        r_batches = List.rev !batches;
        r_events_generated = !generated;
        r_events_applied = !applied;
        r_edges_readded = !readded;
        r_swept = !swept;
        r_groups_total = !groups_total;
        r_delivered = !delivered;
        r_dropped = !dropped;
        r_retransmits = !retransmits;
        r_reroutes = !reroutes;
        r_certified_batches = !certified_batches;
        r_batch_count = nbatches;
        r_final_stretch = final_stretch;
        r_final_certified = final_certified;
        r_m_graph_start = m_graph_start;
        r_m_graph_end = Graph.m g;
        r_m_spanner_start = m_spanner_start;
        r_m_spanner_end = Graph.m h;
      })

(* deterministic JSON: counts and seeded quantities only — no wall-clock
   fields, so same-seed runs are byte-identical (CI diffs the bytes) *)
let to_json r =
  let b = Buffer.create 4096 in
  let stretch_json d = if d = max_int then "null" else string_of_int d in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"dcs-soak/1\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"plan\": \"%s\",\n  \"seed\": %d,\n  \"alpha\": %d,\n"
       (Obs.json_escape r.r_kind) r.r_seed r.r_alpha);
  Buffer.add_string b
    (Printf.sprintf "  \"events\": %d,\n  \"batch\": %d,\n  \"requests\": %d,\n"
       r.r_events r.r_batch r.r_requests);
  Buffer.add_string b
    (Printf.sprintf
       "  \"totals\": {\"generated\": %d, \"applied\": %d, \"readded\": %d, \
        \"swept\": %d, \"groups\": %d, \"delivered\": %d, \"dropped\": %d, \
        \"retransmits\": %d, \"reroutes\": %d},\n"
       r.r_events_generated r.r_events_applied r.r_edges_readded r.r_swept
       r.r_groups_total r.r_delivered r.r_dropped r.r_retransmits r.r_reroutes);
  Buffer.add_string b
    (Printf.sprintf
       "  \"certified_batches\": %d,\n  \"batch_count\": %d,\n\
       \  \"final\": {\"dist_stretch\": %s, \"certified\": %b},\n"
       r.r_certified_batches r.r_batch_count (stretch_json r.r_final_stretch)
       r.r_final_certified);
  Buffer.add_string b
    (Printf.sprintf
       "  \"edges\": {\"graph_start\": %d, \"graph_end\": %d, \"spanner_start\": \
        %d, \"spanner_end\": %d},\n"
       r.r_m_graph_start r.r_m_graph_end r.r_m_spanner_start r.r_m_spanner_end);
  Buffer.add_string b "  \"batches\": [\n";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Buffer.add_string b
        (Printf.sprintf
           "    {\"round\": %d, \"events\": %d, \"applied\": %d, \"readded\": %d, \
            \"swept\": %d, \"groups\": %d, \"dirty\": %d, \"delivered\": %d, \
            \"dropped\": %d, \"retransmits\": %d, \"reroutes\": %d, \"makespan\": \
            %d, \"traffic_stretch\": %s, \"dist_stretch\": %s, \"certified\": %b, \
            \"m_graph\": %d, \"m_spanner\": %d}"
           s.bs_round s.bs_events s.bs_applied s.bs_readded s.bs_swept s.bs_groups
           s.bs_dirty s.bs_delivered s.bs_dropped s.bs_retransmits s.bs_reroutes
           s.bs_makespan
           (Obs.json_float s.bs_traffic_stretch)
           (stretch_json s.bs_dist_stretch) s.bs_certified s.bs_m_graph s.bs_m_spanner))
    r.r_batches;
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b
