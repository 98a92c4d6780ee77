(* dcs — command-line interface to the DC-spanner library.

   Subcommands:
     graph        generate a graph family and print its statistics
     spanner      build a spanner and measure both stretches
     list         print the construction registry (premises, guarantees, references)
     faults       inject faults, simulate degraded routing, self-heal the spanner
     lowerbound   run the Theorem 4 lower-bound experiment
     distributed  run the Corollary 3 LOCAL protocol

   Examples:
     dune exec bin/dcs_cli.exe -- graph --family regular --n 343 --degree 60
     dune exec bin/dcs_cli.exe -- spanner --algorithm algorithm1 --n 343 --degree 60
     dune exec bin/dcs_cli.exe -- list --json
     dune exec bin/dcs_cli.exe -- lowerbound --k 8 --instances 50 --pool 1400
     dune exec bin/dcs_cli.exe -- distributed --n 100 --degree 24 --seed 7 *)

open Cmdliner

let ( let* ) = Result.bind

(* ---- observability (global flags, every subcommand) ---- *)

let obs_term =
  let trace_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write a Chrome trace-event JSON trace of the run to $(docv) (open in \
             chrome://tracing or ui.perfetto.dev).  Equivalent to setting $(b,DCS_TRACE).")
  in
  let metrics_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Dump the metrics registry (counters, gauges, histograms) to $(docv) at exit — \
             JSON, or CSV when $(docv) ends in .csv.  Equivalent to setting $(b,DCS_METRICS).")
  in
  let log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log" ] ~docv:"FILE"
          ~doc:
            "Append structured JSONL events (faults, repairs, premise violations) to $(docv) at \
             Info level.  Equivalent to setting $(b,DCS_LOG); $(b,DCS_LOG_LEVEL) picks the \
             threshold.")
  in
  let profile_arg =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Record spans in memory and print a per-phase profile (wall time, allocation, major \
             GCs) on exit.")
  in
  let print_profile () =
    match Trace.profile () with
    | [] -> ()
    | rows ->
        let human us =
          if us > 1e6 then Printf.sprintf "%.2f s" (us /. 1e6)
          else if us > 1e3 then Printf.sprintf "%.2f ms" (us /. 1e3)
          else Printf.sprintf "%.0f us" us
        in
        let words w =
          if w > 1e6 then Printf.sprintf "%.2f Mw" (w /. 1e6)
          else if w > 1e3 then Printf.sprintf "%.1f kw" (w /. 1e3)
          else Printf.sprintf "%.0f w" w
        in
        Printf.printf "\nprofile (per span, busiest first):\n";
        Printf.printf "  %-28s %8s %10s %10s %12s %12s %6s\n" "span" "count" "total" "mean"
          "minor alloc" "major alloc" "mGCs";
        List.iter
          (fun r ->
            Printf.printf "  %-28s %8d %10s %10s %12s %12s %6d\n" r.Trace.pname r.Trace.pcount
              (human r.Trace.ptotal_us)
              (human (r.Trace.ptotal_us /. float_of_int (max 1 r.Trace.pcount)))
              (words r.Trace.pminor_words) (words r.Trace.pmajor_words)
              r.Trace.pmajor_collections)
          rows
  in
  let setup trace metrics log profile =
    Option.iter (fun f -> Trace.enable ~file:f) trace;
    Option.iter (fun f -> Metrics.enable ~file:f) metrics;
    Option.iter (fun f -> Log.enable ~file:f ()) log;
    if profile then begin
      Obs.set_tracing true;
      at_exit print_profile
    end;
    Resource.sample ();
    at_exit Resource.sample
  in
  Term.(const setup $ trace_arg $ metrics_arg $ log_arg $ profile_arg)

(* ---- graph families ---- *)

(* Malformed input files surface as a proper runtime error (exit 123) with
   the file/line context carried by [Io_error.Parse_error], not a crash. *)
let catch_parse f =
  try Ok (f ())
  with Io_error.Parse_error { file; line; msg } -> Error (Io_error.message ~file ~line msg)

(* A generator's precondition (say, a degree of at least n) is a bad input
   like any other: its [Invalid_argument] becomes an [Error] (exit 123), not
   an uncaught exception (exit 125). *)
let generated f = try f () with Invalid_argument msg -> Error msg

(* The generator flags' values when absent.  The flags themselves are
   [None] when absent, so [make_graph] can tell which ones [--input]
   overrides. *)
let default_family = "regular"
let default_n = 343
let default_degree = 60

(* Unknown names and sizes a family cannot take return [Error] (surfaced
   through [Term.term_result'] as a proper error message + usage), never an
   uncaught exception.  With [--input] the file is the graph: each generator
   flag given next to it is named in a warning on stderr, and stdout and the
   exit status stay as they are. *)
let make_graph ?input ?w_max ?family ?n ?degree ?p ~seed () =
  if Option.value w_max ~default:0 < 0 then Error "w-max must be >= 0"
  else
    match input with
    | Some path ->
        let given =
          List.filter_map
            (fun (flag, set) -> if set then Some flag else None)
            [
              ("--family", Option.is_some family);
              ("--n", Option.is_some n);
              ("--degree", Option.is_some degree);
              ("--prob", Option.is_some p);
              ("--w-max", Option.is_some w_max);
            ]
        in
        if given <> [] then
          Printf.eprintf "warning: --input %s ignores %s\n%!" path (String.concat ", " given);
        catch_parse (fun () -> Graph_io.read path)
    | None ->
        let family = Option.value family ~default:default_family
        and n = Option.value n ~default:default_n
        and degree = Option.value degree ~default:default_degree
        and p = Option.value p ~default:0.1
        and w_max = Option.value w_max ~default:0 in
        let rng = Prng.create seed in
        (* w_max > 0 turns any family weighted: torus and expander have native
           weighted generators, everything else redraws weights on its edge set *)
        let reweight g = if w_max > 0 then Generators.randomize_weights rng g ~w_max else g in
        generated @@ fun () ->
        match family with
        | "regular" ->
            let d = if n * degree mod 2 = 1 then degree + 1 else degree in
            Ok (reweight (Generators.random_regular rng n d))
        | "margulis" ->
            let m = int_of_float (ceil (sqrt (float_of_int n))) in
            Ok (reweight (Generators.margulis m))
        | "torus" ->
            let side = int_of_float (ceil (sqrt (float_of_int n))) in
            if w_max > 0 then Ok (Generators.weighted_torus rng side side ~w_max)
            else Ok (Generators.torus side side)
        | "hypercube" ->
            let d = int_of_float (ceil (log (float_of_int n) /. log 2.0)) in
            Ok (reweight (Generators.hypercube d))
        | "erdos" -> Ok (reweight (Generators.erdos_renyi rng n p))
        | "expander" ->
            (* streaming O(n + m) build — the family that scales to 10^6 nodes *)
            let nn = max 3 n and d = max 2 (min degree (n - 1)) in
            if w_max > 0 then Ok (Generators.weighted_expander rng nn d ~w_max)
            else Ok (Generators.expander rng nn d)
        | "complete" -> Ok (reweight (Generators.complete n))
        | "two-cliques" ->
            Ok (reweight (Generators.two_cliques_matching (if n mod 2 = 1 then n + 1 else n)))
        | "ring" -> Ok (reweight (Generators.ring_of_cliques (max 2 (n / 20)) 20))
        | other ->
            Error
              (Printf.sprintf
                 "unknown graph family %S (expected regular | margulis | torus | hypercube | \
                  erdos | expander | complete | two-cliques | ring)"
                 other)

let family_arg =
  let doc =
    "Graph family: regular | margulis | torus | hypercube | erdos | expander | complete | \
     two-cliques | ring."
  in
  Arg.(
    value
    & opt (some' ~none:default_family string) None
    & info [ "family"; "f" ] ~docv:"FAMILY" ~doc)

let n_arg =
  Arg.(
    value
    & opt (some' ~none:default_n int) None
    & info [ "nodes"; "n" ] ~docv:"N" ~doc:"Number of nodes.")

let degree_arg =
  Arg.(
    value
    & opt (some' ~none:default_degree int) None
    & info [ "degree"; "d" ] ~docv:"D" ~doc:"Degree for regular families.")

let p_arg =
  Arg.(
    value
    & opt (some' ~none:0.1 float) None
    & info [ "prob"; "p" ] ~docv:"P" ~doc:"Edge probability (erdos family).")

let seed_arg = Arg.(value & opt int 42 & info [ "seed"; "s" ] ~docv:"SEED" ~doc:"PRNG seed.")

let w_max_arg =
  Arg.(
    value
    & opt (some' ~none:0 int) None
    & info [ "w-max" ] ~docv:"W"
        ~doc:
          "Draw integer edge weights uniformly from [1, $(docv)] (0 = unweighted).  Distances \
           and stretch bounds then count weight, not hops.")

let trials_arg =
  Arg.(value & opt int 5 & info [ "trials"; "t" ] ~docv:"T" ~doc:"Matching trials to measure.")

(* A negative count is a bad input like any other (exit 123), not a crash
   in the measurement. *)
let check_trials trials = if trials < 0 then Error "trials must be >= 0" else Ok ()

let input_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "input" ] ~docv:"FILE" ~doc:"Read the graph from an edge-list file instead of generating it.")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "output"; "o" ] ~docv:"FILE"
        ~doc:"Write the (generated graph | computed spanner) as an edge-list file.")

(* ---- graph ---- *)

let graph_cmd =
  let run () family n degree p seed w_max input output =
    let* g = make_graph ?input ?w_max ?family ?n ?degree ?p ~seed () in
    (match output with None -> () | Some path -> Graph_io.write g path);
    let c = Graph.snapshot g in
    let rng = Prng.create (seed + 1) in
    (match input with
    | Some path -> Printf.printf "input:       %s\n" path
    | None -> Printf.printf "family:      %s\n" (Option.value family ~default:default_family));
    Printf.printf "nodes:       %d\n" (Graph.n g);
    Printf.printf "edges:       %d\n" (Graph.m g);
    if Graph.is_weighted g then
      Printf.printf "weights:     positive integers, max %d\n" (Csr.max_weight c);
    Printf.printf "degree:      min %d, max %d%s\n" (Graph.min_degree g) (Graph.max_degree g)
      (if Graph.is_regular g then " (regular)" else "");
    Printf.printf "connected:   %b (%d components)\n" (Connectivity.is_connected g)
      (Connectivity.count g);
    Printf.printf "lambda:      %.3f (expansion ratio %.3f)\n" (Spectral.lambda c)
      (Spectral.expansion_ratio c);
    (match Bfs.diameter_sampled c rng ~samples:20 with
    | d when d = max_int -> Printf.printf "diameter:    inf (disconnected)\n"
    | d -> Printf.printf "diameter:    >= %d (sampled)\n" d);
    Ok ()
  in
  let term =
    Term.term_result' ~usage:true
      Term.(
        const run $ obs_term $ family_arg $ n_arg $ degree_arg $ p_arg $ seed_arg $ w_max_arg
        $ input_arg $ output_arg)
  in
  Cmd.v (Cmd.info "graph" ~doc:"Generate a graph family and print its statistics.") term

(* ---- spanner ---- *)

(* Name parsing, the accepted-names doc string, premise validation and the
   [list] subcommand below are all derived from the construction registry:
   a new construction registered in [Construction.all] shows up in every
   subcommand without touching this file. *)

let algorithm_arg =
  let doc = "Spanner construction: " ^ Construction.expected ^ "." in
  Arg.(value & opt string "algorithm1" & info [ "algorithm"; "a" ] ~docv:"ALGO" ~doc)

let general_arg =
  Arg.(value & flag & info [ "general" ] ~doc:"Also measure a permutation routing problem.")

let spanner_cmd =
  let run () family n degree p seed w_max algorithm trials general input output =
    let* () = check_trials trials in
    let* g = make_graph ?input ?w_max ?family ?n ?degree ?p ~seed () in
    let* ctor = Construction.find algorithm in
    let rng = Prng.create (seed + 1) in
    let dc = Construction.build ctor rng g in
    Printf.printf "construction: %s\n" dc.Dc.name;
    Printf.printf "guarantee:    %s\n" ctor.Construction.guarantee;
    List.iter (Printf.printf "warning:      %s\n") (Construction.premise_warnings ctor g);
    let row = Experiment.evaluate ~trials ~with_general:general rng dc in
    Printf.printf "graph:        n=%d m=%d lambda=%.2f\n" row.Experiment.n row.Experiment.m_graph
      row.Experiment.lambda;
    Printf.printf "spanner:      m=%d (%.1f%% of G), lambda=%.2f\n" row.Experiment.m_spanner
      (100.0 *. float_of_int row.Experiment.m_spanner /. float_of_int (max 1 row.Experiment.m_graph))
      row.Experiment.lambda_spanner;
    Printf.printf "dist stretch: %s\n"
      (if row.Experiment.dist_stretch = max_int then "disconnected"
       else string_of_int row.Experiment.dist_stretch);
    if trials = 0 then Printf.printf "matching congestion: not measured (--trials 0)\n"
    else
      Printf.printf "matching congestion: mean %.2f, max %d over %d trials\n"
        row.Experiment.matching.Dc.mean_congestion row.Experiment.matching.Dc.max_congestion
        trials;
    (match row.Experiment.general with
    | None -> ()
    | Some gen ->
        Printf.printf "permutation routing: C_G=%d C_H=%d stretch=%.2f path-stretch=%.1f\n"
          gen.Dc.base_congestion gen.Dc.spanner_congestion gen.Dc.stretch gen.Dc.dist_stretch);
    (match output with
    | None -> ()
    | Some path ->
        Graph_io.write dc.Dc.spanner path;
        Printf.printf "spanner written to %s\n" path);
    Ok ()
  in
  let term =
    Term.term_result' ~usage:true
      Term.(
        const run $ obs_term $ family_arg $ n_arg $ degree_arg $ p_arg $ seed_arg $ w_max_arg
        $ algorithm_arg $ trials_arg $ general_arg $ input_arg $ output_arg)
  in
  Cmd.v (Cmd.info "spanner" ~doc:"Build a spanner and measure both stretches.") term

(* ---- list ---- *)

let list_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the registry as a JSON document.")
  in
  let run () json =
    if json then print_string (Construction.to_json ())
    else begin
      (* every row below is generated from [Construction.all]; nothing here
         is hand-maintained per construction *)
      let header = [ "name"; "aliases"; "premise"; "guarantee"; "params"; "n^e"; "reference" ] in
      let rows =
        List.map
          (fun c ->
            [
              c.Construction.name;
              (match c.Construction.aliases with [] -> "-" | a -> String.concat "," a);
              Premise.requirement_text c.Construction.premise;
              c.Construction.guarantee;
              Construction.params_text c;
              Printf.sprintf "%.2f" c.Construction.edge_exponent;
              c.Construction.reference;
            ])
          Construction.all
      in
      let widths =
        List.fold_left
          (fun ws row -> List.map2 (fun w cell -> max w (String.length cell)) ws row)
          (List.map String.length header) rows
      in
      let print_row row =
        print_string
          (String.concat "  " (List.map2 (fun w cell -> Printf.sprintf "%-*s" w cell) widths row));
        print_newline ()
      in
      print_row header;
      print_row (List.map (fun w -> String.make w '-') widths);
      List.iter print_row rows
    end
  in
  let term = Term.(const run $ obs_term $ json_arg) in
  Cmd.v
    (Cmd.info "list" ~doc:"List every registered spanner construction (premise, guarantee, reference).")
    term

(* ---- lowerbound ---- *)

let lowerbound_cmd =
  let k_arg = Arg.(value & opt int 8 & info [ "faces"; "k" ] ~docv:"K" ~doc:"Faces per instance.") in
  let instances_arg =
    Arg.(value & opt int 50 & info [ "instances"; "i" ] ~docv:"I" ~doc:"Number of instances.")
  in
  let pool_arg =
    Arg.(value & opt int 1400 & info [ "pool" ] ~docv:"POOL" ~doc:"Shared line-node pool size.")
  in
  let run () k instances pool seed =
    let rng = Prng.create seed in
    let t = Theorem4.make rng ~pool ~instances ~k in
    let g = t.Theorem4.graph in
    let h, removed = Theorem4.optimal_spanner t in
    let cut = Array.fold_left (fun acc r -> acc + Array.length r) 0 removed in
    Printf.printf "graph:   n=%d m=%d (%d instances, k=%d)\n" (Graph.n g) (Graph.m g) instances k;
    Printf.printf "spanner: m=%d (removed %d), distance stretch %d\n" (Graph.m h) cut
      (Stretch.exact g h);
    let n = Graph.n g in
    let worst = ref 0 in
    for i = 0 to instances - 1 do
      worst := max !worst (Routing.congestion ~n (Theorem4.forced_routing t i))
    done;
    Printf.printf "congestion stretch: %d (claim >= (2k-1)/4 = %.2f)\n" !worst
      (float_of_int ((2 * k) - 1) /. 4.0)
  in
  let term = Term.(const run $ obs_term $ k_arg $ instances_arg $ pool_arg $ seed_arg) in
  Cmd.v (Cmd.info "lowerbound" ~doc:"Run the Theorem 4 lower-bound experiment.") term

(* ---- check ---- *)

let check_cmd =
  let alpha_arg =
    Arg.(value & opt float 3.0 & info [ "alpha" ] ~docv:"A" ~doc:"Distance stretch bound.")
  in
  let beta_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "beta" ] ~docv:"B"
          ~doc:"Congestion stretch bound (default: the Theorem 3 envelope 12(1+2sqrt(D))log n).")
  in
  let run () family n degree p seed w_max algorithm trials alpha beta input =
    let* () = check_trials trials in
    let* () =
      if trials = 0 then
        Error "rho (Definition 4) needs at least one sampled routing (--trials >= 1)"
      else Ok ()
    in
    let* g = make_graph ?input ?w_max ?family ?n ?degree ?p ~seed () in
    let* ctor = Construction.find algorithm in
    let rng = Prng.create (seed + 1) in
    let dc = Construction.build ctor rng g in
    let beta =
      match beta with
      | Some b -> b
      | None ->
          let delta = float_of_int (max 1 (Graph.max_degree g)) in
          12.0 *. (1.0 +. (2.0 *. sqrt delta)) *. Stats.log2 (float_of_int (max 2 (Graph.n g)))
    in
    Printf.printf "construction: %s on n=%d m=%d\n" dc.Dc.name (Graph.n g) (Graph.m g);
    Printf.printf "checking the (%.1f, %.1f)-DC property over %d sampled routings...\n" alpha beta
      trials;
    let e = Dc_check.estimate ~trials ~alpha ~beta dc rng in
    Printf.printf "rho (Definition 4): %d/%d = %.3f\n" e.Dc_check.successes e.Dc_check.trials
      e.Dc_check.rate;
    Printf.printf "worst distance stretch observed:   %.2f\n" e.Dc_check.worst_dist;
    Printf.printf "worst congestion stretch observed: %.2f\n" e.Dc_check.worst_cong;
    (if e.Dc_check.cert_dist = max_int then
       Printf.printf "exact distance certificate:        disconnected\n"
     else
       Printf.printf "exact distance certificate:        %d (all removed edges)\n"
         e.Dc_check.cert_dist);
    Ok ()
  in
  let term =
    Term.term_result' ~usage:true
      Term.(
        const run $ obs_term $ family_arg $ n_arg $ degree_arg $ p_arg $ seed_arg $ w_max_arg
        $ algorithm_arg $ trials_arg $ alpha_arg $ beta_arg $ input_arg)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Empirically verify the (alpha, beta)-DC property of a construction.")
    term

(* ---- route ---- *)

let route_cmd =
  let strategy_arg =
    Arg.(
      value & opt string "optimizer"
      & info [ "strategy" ] ~docv:"S"
          ~doc:"Routing strategy: det-sp | random-sp | valiant | optimizer.")
  in
  let requests_arg =
    Arg.(
      value & opt int 0
      & info [ "requests"; "r" ] ~docv:"R"
          ~doc:"Number of random requests (0 = a full random permutation).")
  in
  let problem_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "problem" ] ~docv:"FILE" ~doc:"Read the routing problem from a file (see Routing_io).")
  in
  let run () family n degree p seed strategy requests input problem_file =
    let* g = make_graph ?input ?family ?n ?degree ?p ~seed () in
    let c = Graph.snapshot g in
    let rng = Prng.create (seed + 1) in
    let* problem =
      match problem_file with
      | Some path -> catch_parse (fun () -> Routing_io.read ~n:(Graph.n g) path)
      | None ->
          Ok
            (if requests <= 0 then Problems.permutation rng g
             else Problems.random_pairs rng g ~k:requests)
    in
    let* routing =
      match strategy with
      | "det-sp" -> Ok (Sp_routing.route c problem)
      | "random-sp" -> Ok (Sp_routing.route_random c rng problem)
      | "valiant" -> Ok (Valiant.route c rng problem)
      | "optimizer" -> Ok (Congestion_opt.route c rng problem)
      | other ->
          Error
            (Printf.sprintf
               "unknown strategy %S (expected det-sp | random-sp | valiant | optimizer)" other)
    in
    let nn = Graph.n g in
    let max_len = Array.fold_left (fun acc pth -> max acc (Routing.length pth)) 0 routing in
    Printf.printf "graph:      n=%d m=%d (%s)\n" nn (Graph.m g)
      (match input with Some path -> path | None -> Option.value family ~default:default_family);
    Printf.printf "problem:    %d requests\n" (Array.length problem);
    Printf.printf "strategy:   %s\n" strategy;
    Printf.printf "congestion: %d (node), %d (edge)\n"
      (Routing.congestion ~n:nn routing)
      (Routing.edge_congestion ~n:nn routing);
    Printf.printf "max hops:   %d\n" max_len;
    Ok ()
  in
  let term =
    Term.term_result' ~usage:true
      Term.(
        const run $ obs_term $ family_arg $ n_arg $ degree_arg $ p_arg $ seed_arg $ strategy_arg
        $ requests_arg $ input_arg $ problem_arg)
  in
  Cmd.v (Cmd.info "route" ~doc:"Route a workload on a graph and report congestion.") term

(* ---- verify ---- *)

let verify_cmd =
  let graph_file_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "graph"; "g" ] ~docv:"FILE" ~doc:"The original graph (edge-list file).")
  in
  let spanner_file_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "spanner" ] ~docv:"FILE" ~doc:"The candidate spanner (edge-list file).")
  in
  let run () graph_file spanner_file seed trials =
    let* () = check_trials trials in
    let* g = catch_parse (fun () -> Graph_io.read graph_file) in
    let* h = catch_parse (fun () -> Graph_io.read spanner_file) in
    let* () =
      if Graph.n g <> Graph.n h then
        Error
          (Printf.sprintf "node counts differ: the graph has %d nodes, the spanner has %d"
             (Graph.n g) (Graph.n h))
      else Ok ()
    in
    let sub = Graph.is_subgraph h ~of_:g in
    Printf.printf "spanner is a subgraph of the graph: %b\n" sub;
    if sub then begin
      let dist = Stretch.exact g h in
      Printf.printf "distance stretch: %s\n"
        (if dist = max_int then "unbounded (disconnects some pair)" else string_of_int dist);
      if dist < max_int && trials = 0 then
        Printf.printf "matching congestion stretch: not measured (--trials 0)\n"
      else if dist < max_int then begin
        let dc = Dc.of_sp_router ~name:"verify" ~graph:g ~spanner:h in
        let rng = Prng.create seed in
        let r = Dc.measure_matching dc rng ~trials in
        Printf.printf
          "matching congestion stretch over %d trials: mean %.2f, max %d (optimum 1)\n" trials
          r.Dc.mean_congestion r.Dc.max_congestion
      end
    end;
    Ok ()
  in
  let term =
    Term.term_result' ~usage:true
      Term.(const run $ obs_term $ graph_file_arg $ spanner_file_arg $ seed_arg $ trials_arg)
  in
  Cmd.v
    (Cmd.info "verify" ~doc:"Verify subgraph, distance stretch and congestion of a spanner file.")
    term

(* ---- faults ---- *)

let faults_cmd =
  let rate_arg =
    Arg.(
      value & opt float 0.05
      & info [ "fail-rate" ] ~docv:"P"
          ~doc:"Independent failure probability per node/edge (modes nodes and edges).")
  in
  let mode_arg =
    Arg.(
      value & opt string "nodes"
      & info [ "fail-mode" ] ~docv:"MODE"
          ~doc:"Fault model: nodes | edges | adversarial (kill the most-loaded nodes).")
  in
  let round_arg =
    Arg.(
      value & opt int 2
      & info [ "fail-round" ] ~docv:"R" ~doc:"Simulation round at which the faults strike.")
  in
  let kill_arg =
    Arg.(
      value & opt int 0
      & info [ "kill"; "k" ] ~docv:"K"
          ~doc:"Nodes to kill in adversarial mode (0 = n/20, at least 1).")
  in
  let requests_arg =
    Arg.(
      value & opt int 0
      & info [ "requests"; "r" ] ~docv:"R"
          ~doc:"Number of random requests (0 = a full random permutation).")
  in
  let timeout_arg =
    Arg.(
      value & opt int 4
      & info [ "timeout" ] ~docv:"T" ~doc:"Rounds before a lost packet is first retransmitted.")
  in
  let attempts_arg =
    Arg.(
      value & opt int 5
      & info [ "attempts" ] ~docv:"A" ~doc:"Retransmission attempts before a permanent drop.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the full fault report as JSON to $(docv).")
  in
  let run () family n degree p seed algorithm rate mode round kill requests timeout attempts json
      input =
    let* g = make_graph ?input ?family ?n ?degree ?p ~seed () in
    let* ctor = Construction.find algorithm in
    let* () =
      if rate < 0.0 || rate > 1.0 then Error "fail-rate must lie in [0, 1]"
      else if round < 1 then Error "fail-round must be >= 1"
      else if timeout < 1 || attempts < 1 then Error "timeout and attempts must be >= 1"
      else Ok ()
    in
    let rng = Prng.create (seed + 1) in
    let dc = Construction.build ctor rng g in
    let h = dc.Dc.spanner in
    let nn = Graph.n g in
    let problem =
      if requests <= 0 then Problems.permutation rng g else Problems.random_pairs rng g ~k:requests
    in
    let* routing =
      try Ok (Sp_routing.route_random (Graph.snapshot h) rng problem)
      with Failure _ -> Error "the spanner disconnects the workload; cannot route in it"
    in
    let frng = Prng.create (seed + 2) in
    let* plan =
      match mode with
      | "nodes" -> Ok (Fault_plan.uniform_nodes ~round frng g ~p:rate)
      | "edges" -> Ok (Fault_plan.uniform_edges ~round frng g ~p:rate)
      | "adversarial" ->
          let k = if kill > 0 then kill else max 1 (nn / 20) in
          Ok (Fault_plan.adversarial_load ~round ~n:nn routing ~k)
      | other ->
          Error
            (Printf.sprintf "unknown fault mode %S (expected nodes | edges | adversarial)" other)
    in
    let s = Fault_sim.run ~timeout ~max_attempts:attempts ~n:nn ~network:h ~plan routing in
    let g' = Fault_plan.survivor g plan in
    let h' = Fault_plan.survivor h plan in
    let rep = Repair.run h' ~within:g' in
    Printf.printf "construction: %s\n" dc.Dc.name;
    Printf.printf "graph:        n=%d m=%d, spanner m=%d\n" nn (Graph.m g) (Graph.m h);
    Printf.printf "fault plan:   mode=%s rate=%.3f round=%d -> %d node faults, %d edge faults\n"
      mode rate round (Fault_plan.node_faults plan) (Fault_plan.edge_faults plan);
    Printf.printf "sim:          delivered %d/%d, dropped %d, retransmits %d, reroutes %d\n"
      s.Fault_sim.delivered (Array.length routing) s.Fault_sim.dropped s.Fault_sim.retransmits
      s.Fault_sim.reroutes;
    Printf.printf "              makespan %d (C=%d D=%d), max queue %d, avg latency %.2f\n"
      s.Fault_sim.makespan s.Fault_sim.congestion s.Fault_sim.dilation s.Fault_sim.max_queue
      s.Fault_sim.avg_latency;
    Printf.printf
      "repair:       re-added %d edges (%d connectivity + %d stretch), connected %b, dist \
       stretch %s, certified %b\n"
      (List.length rep.Repair.added) rep.Repair.connectivity_added rep.Repair.stretch_added
      rep.Repair.connected
      (if rep.Repair.dist_stretch = max_int then "unbounded"
       else string_of_int rep.Repair.dist_stretch)
      rep.Repair.certified;
    (match json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        Printf.fprintf oc
          "{\n\
          \  \"construction\": \"%s\",\n\
          \  \"graph\": { \"n\": %d, \"m\": %d },\n\
          \  \"spanner\": { \"m\": %d },\n\
          \  \"workload\": { \"requests\": %d },\n\
          \  \"plan\": { \"mode\": \"%s\", \"rate\": %s, \"round\": %d, \"node_faults\": %d, \
           \"edge_faults\": %d },\n\
          \  \"sim\": { \"delivered\": %d, \"dropped\": %d, \"retransmits\": %d, \"reroutes\": \
           %d, \"makespan\": %d, \"max_queue\": %d, \"avg_latency\": %s, \"congestion\": %d, \
           \"dilation\": %d },\n\
          \  \"repair\": { \"edges_added\": %d, \"connectivity_added\": %d, \"stretch_added\": \
           %d, \"connected\": %b, \"dist_stretch\": %d, \"certified\": %b }\n\
           }\n"
          (Obs.json_escape dc.Dc.name) nn (Graph.m g) (Graph.m h) (Array.length routing)
          (Obs.json_escape mode) (Obs.json_float rate) round (Fault_plan.node_faults plan)
          (Fault_plan.edge_faults plan) s.Fault_sim.delivered s.Fault_sim.dropped
          s.Fault_sim.retransmits s.Fault_sim.reroutes s.Fault_sim.makespan s.Fault_sim.max_queue
          (Obs.json_float s.Fault_sim.avg_latency) s.Fault_sim.congestion s.Fault_sim.dilation
          (List.length rep.Repair.added) rep.Repair.connectivity_added rep.Repair.stretch_added
          rep.Repair.connected
          (if rep.Repair.dist_stretch = max_int then -1 else rep.Repair.dist_stretch)
          rep.Repair.certified;
        close_out oc;
        Printf.printf "report written to %s\n" path);
    Ok ()
  in
  let term =
    Term.term_result' ~usage:true
      Term.(
        const run $ obs_term $ family_arg $ n_arg $ degree_arg $ p_arg $ seed_arg $ algorithm_arg
        $ rate_arg $ mode_arg $ round_arg $ kill_arg $ requests_arg $ timeout_arg $ attempts_arg
        $ json_arg $ input_arg)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Inject faults into a spanner routing, simulate degraded-mode delivery, and self-heal \
          the spanner.")
    term

(* ---- soak ---- *)

let soak_cmd =
  let events_arg =
    Arg.(
      value & opt int 1000
      & info [ "events"; "e" ] ~docv:"E" ~doc:"Total churn events to generate.")
  in
  let batch_arg =
    Arg.(value & opt int 50 & info [ "batch"; "b" ] ~docv:"B" ~doc:"Churn events per batch.")
  in
  let plan_arg =
    Arg.(
      value & opt string "uniform"
      & info [ "plan" ] ~docv:"PLAN"
          ~doc:"Churn generator: uniform | adversarial (max-load) | targeted (spanner hubs).")
  in
  let alpha_arg =
    Arg.(
      value & opt int 0
      & info [ "alpha" ] ~docv:"A"
          ~doc:
            "Stretch bound to maintain (0 = derive from the construction's guarantee, \
             falling back to 3).")
  in
  let requests_arg =
    Arg.(
      value & opt int 16
      & info [ "requests"; "r" ] ~docv:"R" ~doc:"Routing requests sampled per batch.")
  in
  let timeout_arg =
    Arg.(
      value & opt int 4
      & info [ "timeout" ] ~docv:"T" ~doc:"Rounds before a lost packet is first retransmitted.")
  in
  let attempts_arg =
    Arg.(
      value & opt int 5
      & info [ "attempts" ] ~docv:"A" ~doc:"Retransmission attempts before a permanent drop.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the deterministic dcs-soak/1 report as JSON to $(docv).")
  in
  let run () family n degree p seed algorithm events batch plan alpha requests timeout attempts
      json input =
    let* g = make_graph ?input ?family ?n ?degree ?p ~seed () in
    let* ctor = Construction.find algorithm in
    let* kind =
      match Churn_gen.kind_of_string plan with
      | Some k -> Ok k
      | None ->
          Error
            (Printf.sprintf "unknown churn plan %S (expected uniform | adversarial | targeted)"
               plan)
    in
    let* () =
      if events < 1 then Error "events must be >= 1"
      else if batch < 1 then Error "batch must be >= 1"
      else if alpha < 0 then Error "alpha must be >= 0"
      else if requests < 0 then Error "requests must be >= 0"
      else if timeout < 1 || attempts < 1 then Error "timeout and attempts must be >= 1"
      else Ok ()
    in
    let alpha =
      if alpha > 0 then alpha
      else
        match ctor.Construction.alpha with
        | Some a -> int_of_float (ceil a)
        | None -> 3
    in
    let rng = Prng.create (seed + 1) in
    let dc = Construction.build ctor rng g in
    let config =
      {
        Soak.events;
        batch;
        seed;
        alpha;
        kind;
        requests;
        timeout;
        max_attempts = attempts;
      }
    in
    let report = Soak.run config ~graph:g ~spanner:dc.Dc.spanner in
    Printf.printf "construction: %s\n" dc.Dc.name;
    Printf.printf "churn:        plan=%s events=%d batch=%d seed=%d alpha=%d\n" report.Soak.r_kind
      report.Soak.r_events report.Soak.r_batch report.Soak.r_seed report.Soak.r_alpha;
    Printf.printf "graph:        n=%d, edges %d -> %d\n" (Graph.n g) report.Soak.r_m_graph_start
      report.Soak.r_m_graph_end;
    Printf.printf "spanner:      edges %d -> %d (%d re-added by the healer)\n"
      report.Soak.r_m_spanner_start report.Soak.r_m_spanner_end report.Soak.r_edges_readded;
    Printf.printf "certify:      %d/%d batches certified, swept %d/%d source groups\n"
      report.Soak.r_certified_batches report.Soak.r_batch_count report.Soak.r_swept
      report.Soak.r_groups_total;
    Printf.printf "traffic:      delivered %d, dropped %d, retransmits %d, reroutes %d\n"
      report.Soak.r_delivered report.Soak.r_dropped report.Soak.r_retransmits
      report.Soak.r_reroutes;
    Printf.printf "final:        dist stretch %s, certified %b\n"
      (if report.Soak.r_final_stretch = max_int then "unbounded"
       else string_of_int report.Soak.r_final_stretch)
      report.Soak.r_final_certified;
    (match json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Soak.to_json report);
        close_out oc;
        Printf.printf "report written to %s\n" path);
    if report.Soak.r_certified_batches = report.Soak.r_batch_count then Ok ()
    else Error "soak left uncertified batches"
  in
  let term =
    Term.term_result' ~usage:true
      Term.(
        const run $ obs_term $ family_arg $ n_arg $ degree_arg $ p_arg $ seed_arg $ algorithm_arg
        $ events_arg $ batch_arg $ plan_arg $ alpha_arg $ requests_arg $ timeout_arg
        $ attempts_arg $ json_arg $ input_arg)
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run a sustained-churn soak: batched insert/delete/isolate events against a live \
          spanner with incremental repair, re-certification, and degraded-mode traffic.")
    term

(* ---- distributed ---- *)

let distributed_cmd =
  let run () n degree seed =
    let n = Option.value n ~default:default_n
    and degree = Option.value degree ~default:default_degree in
    let d = if n * degree mod 2 = 1 then degree + 1 else degree in
    let* g = generated (fun () -> Ok (Generators.random_regular (Prng.create seed) n d)) in
    let r = Dist_spanner.run ~seed g in
    let a, b = Regular_dc.support_thresholds Regular_dc.Scaled g in
    let h, _, _ = Regular_dc.of_sample g ~sampled:r.Dist_spanner.sampled ~a ~b in
    let equal =
      Graph.m r.Dist_spanner.spanner = Graph.m h && Graph.is_subgraph r.Dist_spanner.spanner ~of_:h
    in
    Printf.printf "graph:     n=%d Delta=%d m=%d\n" n d (Graph.m g);
    Printf.printf "rounds:    %d\n" r.Dist_spanner.rounds;
    Printf.printf "messages:  %d (%d edge records)\n" r.Dist_spanner.messages
      r.Dist_spanner.entries;
    Printf.printf "spanner:   m=%d, distance stretch %d\n"
      (Graph.m r.Dist_spanner.spanner)
      (Stretch.exact g r.Dist_spanner.spanner);
    Printf.printf "matches Algorithm 1 on the same G': %b\n" equal;
    Ok ()
  in
  let term =
    Term.term_result' ~usage:true Term.(const run $ obs_term $ n_arg $ degree_arg $ seed_arg)
  in
  Cmd.v (Cmd.info "distributed" ~doc:"Run the Corollary 3 LOCAL protocol.") term

let () =
  let info =
    Cmd.info "dcs" ~version:"1.0.0"
      ~doc:"Sparse spanners with small distance and congestion stretches (SPAA 2024)."
  in
  (* [~term_err:some_error] (123): runtime failures — unknown family, unknown
     algorithm, mismatched files — report as errors, not as usage mistakes
     (124 stays reserved for genuine command-line syntax errors). *)
  exit
    (Cmd.eval ~term_err:Cmd.Exit.some_error
       (Cmd.group info
          [
            graph_cmd;
            spanner_cmd;
            list_cmd;
            check_cmd;
            route_cmd;
            verify_cmd;
            faults_cmd;
            soak_cmd;
            lowerbound_cmd;
            distributed_cmd;
          ]))
