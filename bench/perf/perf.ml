(* bench/perf: the pipeline benchmark.

     perf.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]

   sets the workload up repeatedly for about two seconds (setup_s is the
   median of those setups), runs one untimed warm-up op, then runs ops
   for S seconds and prints every
   end-to-end metric by name and unit.  With --trace 1 the S seconds are
   split: the first half runs untraced, the second half reruns the same ops
   with tracing and metrics on, and the per-layer metrics are printed
   instead; --trace-dir also writes the Chrome trace and layers.json there.
   The last line of stdout is one JSON object:
   {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
   Exit status 1 when any op failed its check (after printing), 2 on bad
   usage.  Without --workload every workload runs in turn, each in its own
   child process. *)

(* Setups repeat until they have taken [setup_budget_s] seconds (at least
   [min_setups], at most [max_setups] of them).  A setup takes 5–90 ms, and
   a shared host's slow spells last a few hundred ms, so a median over a
   couple of seconds of setups is far steadier than one over five. *)
let min_setups = 11
let max_setups = 1001
let setup_budget_s = 2.0

let usage () =
  Printf.sprintf "usage: perf.exe [--workload %s] [--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR]"
    (String.concat "|" (List.map (fun (w : Perf_workload.t) -> w.name) Perf_workload.all))

let print_metrics metrics =
  List.iter
    (fun (mt : Perf_report.metric) -> Printf.printf "%-28s %16.6g %s\n" mt.name mt.value mt.units)
    metrics

let run_workload (w : Perf_workload.t) ~seed ~seconds ~trace ~trace_dir =
  (* keep only the last setup alive, so peak_rss_mb sees one copy of the inputs *)
  let rec set_up n timings total =
    let env = Perf_workload.setup w ~seed in
    let timings = (env.setup_s, env.gen_ms, env.snapshot_ms) :: timings in
    let total = total +. env.setup_s in
    if n + 1 >= max_setups || (n + 1 >= min_setups && total >= setup_budget_s) then (env, timings)
    else set_up (n + 1) timings total
  in
  let env, timings = set_up 0 [] 0.0 in
  let median f = Stats.median (Array.of_list (List.map f timings)) in
  let setup_s = median (fun (s, _, _) -> s) in
  let untraced = Perf_layers.tally ~traced:false in
  (match w.op with
  | Perf_workload.Build_certify | Perf_workload.Route ->
      ignore (Perf_workload.run w env ~stop:(Perf_workload.Ops 1) ~tally:untraced : Perf_workload.acc)
  | Perf_workload.Churn _ -> ());
  let phase = if trace then seconds /. 2.0 else seconds in
  let acc = Perf_workload.run w env ~stop:(Perf_workload.Seconds phase) ~tally:untraced in
  (* the tail is printed for reading, not bounded: see README, "How the bounds were set" *)
  Printf.printf "workload %s seed %d: %d ops, %d timed samples, %d failed; p75 %.1f ms, p90 %.1f ms\n"
    w.name seed acc.attempted (List.length acc.lat_ms) acc.failed (Perf_report.percentile acc 75.0)
    (Perf_report.percentile acc 90.0);
  let metrics, attempted, failed, errors =
    if not trace then (Perf_report.end_to_end ~setup_s acc, acc.attempted, acc.failed, acc.errors)
    else begin
      Obs.set_tracing true;
      Obs.set_metrics true;
      let tally = Perf_layers.tally ~traced:true in
      let traced = Perf_workload.run w env ~stop:(Perf_workload.Seconds phase) ~tally in
      Obs.set_tracing false;
      Obs.set_metrics false;
      Printf.printf "traced rerun: %d ops, %d timed samples, %d failed\n" traced.attempted
        (List.length traced.lat_ms) traced.failed;
      let rows = Perf_layers.attribute (Trace.snapshot ()) in
      Option.iter
        (fun dir ->
          Trace.write (Filename.concat dir (w.name ^ ".trace.json"));
          Out_channel.with_open_text
            (Filename.concat dir (w.name ^ ".layers.json"))
            (fun oc ->
              output_string oc (Perf_layers.layers_json ~workload:w.name ~ops:traced.attempted rows)))
        trace_dir;
      ( Perf_report.per_layer ~env
          ~gen_ms:(median (fun (_, g, _) -> g))
          ~snapshot_ms:(median (fun (_, _, s) -> s))
          ~untraced:acc ~traced ~tally ~rows,
        acc.attempted + traced.attempted,
        acc.failed + traced.failed,
        acc.errors @ traced.errors )
    end
  in
  List.iter (fun e -> Printf.eprintf "perf %s: failed op: %s\n" w.name e) errors;
  print_metrics metrics;
  Option.iter
    (fun dir -> ignore (Bench_report.write ~dir (Perf_report.bench_report ~workload:w.name metrics) : string))
    (Bench_report.bench_dir ());
  print_endline (Perf_report.result_line ~correct:(failed = 0) ~attempted ~failed metrics);
  if failed > 0 then exit 1

(* every workload in turn, each in a child process of this executable *)
let run_all ~seed ~seconds ~trace ~trace_dir =
  let status =
    List.fold_left
      (fun worst (w : Perf_workload.t) ->
        let args =
          [ "--workload"; w.name; "--seed"; string_of_int seed; "--seconds"; Printf.sprintf "%g" seconds ]
          @ [ "--trace"; (if trace then "1" else "0") ]
          @ match trace_dir with Some d -> [ "--trace-dir"; d ] | None -> []
        in
        let pid =
          Unix.create_process Sys.executable_name
            (Array.of_list (Sys.executable_name :: args))
            Unix.stdin Unix.stdout Unix.stderr
        in
        match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> worst
        | _, Unix.WEXITED c -> max worst c
        | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) -> max worst 1)
      0 Perf_workload.all
  in
  exit status

let () =
  let workload = ref None
  and seed = ref 1
  and seconds = ref 10.0
  and trace = ref 0
  and trace_dir = ref None in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 report per-layer metrics from a traced rerun");
      ("--trace-dir", Arg.String (fun d -> trace_dir := Some d), "DIR write the trace and layers.json");
    ]
  in
  let bad msg =
    prerr_endline ("perf: " ^ msg);
    prerr_endline (usage ());
    exit 2
  in
  (try Arg.parse_argv Sys.argv specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) (usage ())
   with
  | Arg.Bad msg -> bad msg
  | Arg.Help msg ->
      print_string msg;
      exit 0);
  if !trace <> 0 && !trace <> 1 then bad "--trace takes 0 or 1";
  if not (!seconds > 0.0) then bad "--seconds must be positive";
  (* the ops are single-domain; pin the pool size anyway so a kernel that
     fans out cannot take more cores than the machine has *)
  if Sys.getenv_opt "DCS_DOMAINS" = None then
    Unix.putenv "DCS_DOMAINS" (string_of_int (min 2 (Domain.recommended_domain_count ())));
  let trace = !trace = 1 in
  match !workload with
  | None -> run_all ~seed:!seed ~seconds:!seconds ~trace ~trace_dir:!trace_dir
  | Some name -> (
      match Perf_workload.find name Perf_workload.all with
      | None -> bad ("unknown workload " ^ name)
      | Some w -> (
          try run_workload w ~seed:!seed ~seconds:!seconds ~trace ~trace_dir:!trace_dir
          with Failure msg ->
            Printf.eprintf "perf %s: %s\n" name msg;
            exit 1))
