(* Smoke test of the pipeline benchmark: every workload at tiny size, 3 ops
   each, through the same setup/op/check code the benchmark runs. *)

let check = Alcotest.check
let seed = 7

let run ?(traced = false) (w : Perf_workload.t) =
  let env = Perf_workload.setup w ~seed in
  let tally = Perf_layers.tally ~traced in
  (env, tally, Perf_workload.run w env ~stop:(Perf_workload.Ops 3) ~tally)

(* everything a run reports except wall-clock readings *)
let counts (a : Perf_workload.acc) =
  [
    a.attempted;
    a.failed;
    a.items;
    a.kept_n;
    a.kept_edges;
    a.repaired;
    a.stretch;
    a.congestion;
    a.pairs;
    a.soak_runs;
    a.swept;
    a.swept_base;
    a.dirty;
    a.readded;
  ]

let test_runs_clean () =
  List.iter
    (fun (w : Perf_workload.t) ->
      let _, _, a = run w in
      check Alcotest.int (w.name ^ " attempted") 3 a.attempted;
      check Alcotest.int (w.name ^ " failed") 0 a.failed;
      check Alcotest.bool (w.name ^ " certified within bound") true (a.stretch >= 1 && a.stretch <= w.bound);
      check Alcotest.bool (w.name ^ " sparsifies") true (a.kept_sum /. float_of_int a.kept_n < 1.0))
    Perf_workload.tiny

let test_same_seed_same_results () =
  List.iter
    (fun (w : Perf_workload.t) ->
      let _, _, a = run w and _, _, b = run w in
      check Alcotest.(list int) (w.name ^ " counts") (counts a) (counts b);
      check (Alcotest.float 0.0) (w.name ^ " kept_frac") a.kept_sum b.kept_sum)
    Perf_workload.tiny

let tiny name =
  match Perf_workload.find name Perf_workload.tiny with
  | Some w -> w
  | None -> Alcotest.failf "no tiny workload %s" name

let tampered_run name tamper =
  let w = tiny name in
  let build rng g =
    let b = w.build rng g in
    tamper w g b;
    b
  in
  let _, _, a = run { w with build } in
  a

(* A single deleted edge rarely breaks these spanners (most edges have
   another detour within the bound), so the corruption deletes every spanner
   edge at node 0, which leaves node 0's G-edges without any detour. *)
let test_broken_spanner_fails () =
  List.iter
    (fun name ->
      let a =
        tampered_run name (fun _ _ b -> ignore (Graph.isolate b.Perf_workload.spanner 0 : int))
      in
      check Alcotest.int (name ^ ": every op with deleted spanner edges fails") 3 a.failed)
    [ "dc-build"; "sparse-certify"; "weighted-certify" ];
  let a =
    tampered_run "dc-build" (fun _ g b ->
        let h = b.Perf_workload.spanner in
        let v = ref 1 in
        while Graph.mem_edge g 0 !v do
          incr v
        done;
        ignore (Graph.add_edge h 0 !v : bool))
  in
  check Alcotest.int "dc-build: every op with a foreign spanner edge fails" 3 a.failed

(* Replace the first path by a detour through a node its source is not
   adjacent to in the spanner: endpoints stay right, one hop does not
   exist. *)
let corrupt_hop h (paths : Routing.path array) =
  let p = paths.(0) in
  let u = p.(0) and v = p.(Array.length p - 1) in
  let x = ref 0 in
  while !x = u || !x = v || Graph.mem_edge h u !x do
    incr x
  done;
  paths.(0) <- [| u; !x; v |]

let test_corrupted_hop_fails () =
  List.iter
    (fun name ->
      let w = tiny name in
      let build rng g =
        let b = w.build rng g in
        let route =
          Option.map
            (fun r rng pairs ->
              let paths = r rng pairs in
              corrupt_hop b.Perf_workload.spanner paths;
              paths)
            b.Perf_workload.route
        in
        { b with route }
      in
      let _, _, a = run { w with build } in
      check Alcotest.int (name ^ ": every op with a corrupted hop fails") 3 a.failed)
    [ "dc-build"; "dc-route" ]

(* The traced run splits each op's wall time between the layers, and the
   runner's own time inside an op is a sliver. *)
let test_attribution () =
  Trace.clear ();
  Obs.set_tracing true;
  Obs.set_metrics true;
  let env, tally, a = run ~traced:true (tiny "dc-build") in
  Obs.set_tracing false;
  Obs.set_metrics false;
  let rows = Perf_layers.attribute (Trace.snapshot ()) in
  Trace.clear ();
  let op_us = Perf_layers.total_us rows "bench.op" in
  let layers_us =
    List.fold_left (fun acc l -> acc +. Perf_layers.self_us rows l) 0.0 [ "construction"; "stretch"; "router" ]
  in
  check Alcotest.bool "layers cover the ops" true (layers_us <= op_us && layers_us >= 0.9 *. op_us);
  check Alcotest.bool "groups counted" true (a.groups > 0);
  let metrics = Perf_report.per_layer ~env ~gen_ms:env.gen_ms ~snapshot_ms:env.snapshot_ms ~untraced:a ~traced:a ~tally ~rows in
  let value name = (List.find (fun (mt : Perf_report.metric) -> mt.name = name) metrics).value in
  check Alcotest.bool "construction time" true (value "construction.ms" > 0.0);
  check Alcotest.bool "router pairs" true (value "router.us_per_pair" > 0.0)

(* BENCHMARK.json names exactly the workloads and metrics the runner emits. *)
let benchmark_names () =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  let re = Str.regexp {|"name": "\([^"]*\)"|} in
  let rec scan pos acc =
    match Str.search_forward re text pos with
    | exception Not_found -> List.rev acc
    | _ -> scan (Str.match_end ()) (Str.matched_group 1 text :: acc)
  in
  scan 0 []

let test_catalogue () =
  let w = tiny "dc-build" in
  let env, tally, a = run w in
  let names ms = List.map (fun (mt : Perf_report.metric) -> mt.name) ms in
  let emitted =
    List.map (fun (w : Perf_workload.t) -> w.name) Perf_workload.all
    @ names (Perf_report.end_to_end ~setup_s:env.setup_s a)
    @ names (Perf_report.per_layer ~env ~gen_ms:env.gen_ms ~snapshot_ms:env.snapshot_ms ~untraced:a ~traced:a ~tally ~rows:[])
  in
  check Alcotest.(list string) "BENCHMARK.json names" emitted (benchmark_names ())

let () =
  Alcotest.run "perf"
    [
      ( "workloads",
        [
          Alcotest.test_case "tiny workloads run clean" `Quick test_runs_clean;
          Alcotest.test_case "same seed same results" `Quick test_same_seed_same_results;
          Alcotest.test_case "broken spanner fails" `Quick test_broken_spanner_fails;
          Alcotest.test_case "corrupted route hop fails" `Quick test_corrupted_hop_fails;
          Alcotest.test_case "layer attribution" `Quick test_attribution;
          Alcotest.test_case "BENCHMARK.json catalogue" `Quick test_catalogue;
        ] );
    ]
