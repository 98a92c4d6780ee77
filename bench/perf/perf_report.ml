(* The metric catalogue: end-to-end metrics from the untraced run, per-layer
   metrics from the traced one.  Names and units here are the ones
   BENCHMARK.json lists (the smoke test checks that they agree). *)

type metric = {
  name : string;
  value : float;
  units : string;
  higher : bool;  (** higher is better *)
  stable : bool;  (** the same on every run of one seed *)
}

let m ?(higher = false) ?(stable = false) name units value = { name; value; units; higher; stable }

let percentile (acc : Perf_workload.acc) p =
  match acc.lat_ms with [] -> 0.0 | l -> Stats.percentile (Array.of_list l) p

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* VmHWM, the process's peak resident set, in MiB; 0 without procfs *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0.0
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> 0.0
            | line -> (
                match Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> kb) with
                | Some kb -> float_of_int kb /. 1024.0
                | None -> scan ())
          in
          scan ())

let end_to_end ~setup_s (acc : Perf_workload.acc) =
  [
    m "setup_s" "s" setup_s;
    m "op_ms.p50" "ms" (percentile acc 50.0);
    m ~higher:true "throughput" "items/s" (ratio (float_of_int acc.items) (acc.busy_ms /. 1000.0));
    m "peak_rss_mb" "MB" (peak_rss_mb ());
    m "kept_frac" "ratio" (ratio acc.kept_sum (float_of_int acc.kept_n));
    m "dist_stretch" "stretch" (float_of_int acc.stretch);
  ]

let per_layer ~(env : Perf_workload.env) ~gen_ms ~snapshot_ms ~untraced ~(traced : Perf_workload.acc)
    ~tally ~rows =
  let ops = float_of_int (max 1 traced.attempted) in
  let per_op x = x /. ops in
  let sum key = Perf_layers.get tally key in
  let span_ms layer name = Perf_layers.total_us ~layer rows name /. 1000.0 in
  let op_ms = span_ms "op" "bench.op" in
  let share layer = 100.0 *. ratio (Perf_layers.self_us rows layer /. 1000.0) op_ms in
  let pairs = float_of_int traced.pairs in
  let runs = float_of_int (max 1 traced.soak_runs) in
  [
    m "graph.gen_ms" "ms" gen_ms;
    m "graph.snapshot_ms" "ms" snapshot_ms;
    m ~stable:true "graph.alloc_mw" "Mw" (env.graph_alloc_w /. 1e6);
    m ~stable:true "graph.edges" "count" (float_of_int (Graph.m env.g));
    m "construction.ms" "ms" (per_op (sum "construction.ms"));
    m "construction.alloc_mw" "Mw" (per_op (sum "construction.alloc_w") /. 1e6);
    m "construction.major_gcs" "count" (per_op (sum "construction.major_gcs"));
    m "construction.kept_edges" "count" (per_op (float_of_int traced.kept_edges));
    m "construction.repaired" "count" (per_op (float_of_int traced.repaired));
    m "construction.en_keep_ms" "ms" (per_op (span_ms "construction" "en.keep"));
    m "construction.en_repair_ms" "ms" (per_op (span_ms "construction" "en.repair"));
    m "construction.self_pct" "%" (share "construction");
    m "stretch.ms" "ms" (per_op (sum "stretch.ms"));
    m "stretch.alloc_mw" "Mw" (per_op (sum "stretch.alloc_w") /. 1e6);
    m "stretch.groups" "count" (per_op (float_of_int traced.groups));
    m "stretch.sweeps" "count" (per_op (sum "stretch.bfs_batch.sweeps"));
    m "stretch.words" "count" (per_op (sum "stretch.bfs_batch.words"));
    m "stretch.bfs_sweep_ms" "ms" (per_op (span_ms "stretch" "bfs.sweep"));
    m "stretch.dijkstra_sweep_ms" "ms" (per_op (span_ms "stretch" "dijkstra.sweep"));
    m "stretch.self_pct" "%" (share "stretch");
    m "router.ms" "ms" (per_op (sum "router.ms"));
    m "router.us_per_pair" "us" (ratio (1000.0 *. sum "router.ms") pairs);
    m "router.alloc_mw" "Mw" (per_op (sum "router.alloc_w") /. 1e6);
    m "router.cache_miss_frac" "ratio" (ratio (sum "router.spanner.candidate_cache_miss") pairs);
    m "router.augmentations" "count" (per_op (sum "router.matching.augmentations"));
    m "router.fallbacks" "count" (per_op (sum "router.spanner.router_fallbacks"));
    m "router.congestion_max" "load" (float_of_int traced.congestion);
    m "router.self_pct" "%" (share "router");
    m "soak.certify_inc_ms" "ms" (per_op (span_ms "soak" "spanner.certify_incremental"));
    m "soak.fault_sim_ms" "ms" (per_op (span_ms "soak" "fault_sim.run"));
    m "soak.self_ms" "ms" (per_op (Perf_layers.self_us ~name:"churn.soak" rows "soak" /. 1000.0));
    m "soak.swept_frac" "ratio" (ratio (float_of_int traced.swept) (float_of_int traced.swept_base));
    m "soak.groups" "count" (per_op (float_of_int traced.swept_base));
    m "soak.dirty" "count" (per_op (float_of_int traced.dirty));
    m "soak.readded" "count" (per_op (float_of_int traced.readded));
    m "soak.first_batch_ms" "ms" (traced.first_batch_ms /. runs);
    m "soak.audit_ms" "ms" (traced.audit_ms /. runs);
    m "soak.self_pct" "%" (share "soak");
    m "obs.trace_overhead_pct" "%"
      (100.0 *. (ratio (percentile traced 50.0) (percentile untraced 50.0) -. 1.0));
    m ~higher:true "obs.coverage_pct" "%" (100.0 -. share "op");
  ]

(* ---- output ---- *)

(* every digit of the measured value; JSON has no spelling for nan/inf *)
let json_number x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun mt ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" (Obs.json_escape mt.name)
              (json_number mt.value) (Obs.json_escape mt.units))
          metrics))

let bench_report ~workload metrics =
  let br = Bench_report.create ~block:("perf." ^ workload) ~scale:"perf" in
  List.iter
    (fun mt -> Bench_report.add br ~higher_is_better:mt.higher ~stable:mt.stable ~units:mt.units mt.name mt.value)
    metrics;
  br
