(* End-to-end CLI tests: malformed input files must surface as runtime
   errors (exit 123, the [Cmd.Exit.some_error] convention documented in
   bin/dcs_cli.ml) rather than crashes, and the [faults] subcommand must
   emit a well-formed JSON report. *)

let check = Alcotest.check

(* tests run from _build/default/test/; the binary sits next door *)
let cli = Filename.concat Filename.parent_dir_name (Filename.concat "bin" "dcs_cli.exe")

let with_temp_file contents f =
  let path = Filename.temp_file "dcs_cli_test" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let run_cli args = Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" cli args)

let body_contains body needle =
  let nl = String.length needle in
  let rec find i = i + nl <= String.length body && (String.sub body i nl = needle || find (i + 1)) in
  find 0

let test_cli_exists () = check Alcotest.bool "binary built" true (Sys.file_exists cli)

let test_malformed_graph_exits_123 () =
  List.iter
    (fun contents ->
      with_temp_file contents (fun path ->
          check Alcotest.int
            (Printf.sprintf "graph --input on %S" contents)
            123
            (run_cli (Printf.sprintf "graph --input %s" path))))
    [ "garbage\n"; ""; "n 4 2\n0 1\n"; "n 4 1\n0 9\n"; "n 4 1\nx y\n" ]

let test_malformed_problem_exits_123 () =
  with_temp_file "p 1\n0 99\n" (fun path ->
      check Alcotest.int "route --problem out of range" 123
        (run_cli (Printf.sprintf "route --family torus -n 25 --problem %s" path)))

let test_wellformed_graph_exits_0 () =
  with_temp_file "n 3 3\n0 1\n1 2\n2 0\n" (fun path ->
      check Alcotest.int "triangle accepted" 0 (run_cli (Printf.sprintf "graph --input %s" path)))

let test_faults_json_report () =
  let json = Filename.temp_file "dcs_cli_faults" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove json)
    (fun () ->
      check Alcotest.int "faults runs" 0
        (run_cli
           (Printf.sprintf
              "faults --family regular -n 60 -d 8 --fail-rate 0.05 --seed 7 --json %s" json));
      let ic = open_in json in
      let len = in_channel_length ic in
      let body = really_input_string ic len in
      close_in ic;
      List.iter
        (fun key ->
          check Alcotest.bool (Printf.sprintf "report has %S" key) true
            (let re = Printf.sprintf "\"%s\"" key in
             let rec find i =
               i + String.length re <= String.length body
               && (String.sub body i (String.length re) = re || find (i + 1))
             in
             find 0))
        [ "delivered"; "dropped"; "retransmits"; "reroutes"; "repair"; "certified"; "plan" ])

let test_faults_bad_mode_exits_123 () =
  check Alcotest.int "unknown fault mode" 123
    (run_cli "faults --family torus -n 25 --fail-mode cosmic")

let test_unknown_algorithm_exits_123 () =
  check Alcotest.int "unknown algorithm" 123
    (run_cli "spanner --family torus -n 25 --algorithm bogus")

let test_bad_weight_exits_123 () =
  List.iter
    (fun contents ->
      with_temp_file contents (fun path ->
          check Alcotest.int
            (Printf.sprintf "graph --input on %S" contents)
            123
            (run_cli (Printf.sprintf "graph --input %s" path))))
    [ "n 3 1\n0 1 0\n"; "n 3 1\n0 1 -4\n"; "n 3 1\n0 1 x\n" ]

let test_negative_w_max_exits_123 () =
  check Alcotest.int "negative --w-max" 123 (run_cli "graph --family torus -n 25 --w-max -2")

(* [args] exits 123 with [msg] as the first line of stderr: a one-line
   error plus usage, never an uncaught exception *)
let check_error args msg =
  let err = Filename.temp_file "dcs_cli_err" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove err)
    (fun () ->
      let code = Sys.command (Printf.sprintf "%s %s >/dev/null 2>%s" cli args err) in
      check Alcotest.int (args ^ " exits 123") 123 code;
      let ic = open_in err in
      let body = really_input_string ic (in_channel_length ic) in
      close_in ic;
      check Alcotest.bool (args ^ " no uncaught exception") false
        (body_contains body "uncaught exception");
      check Alcotest.string (args ^ " says why") msg (List.hd (String.split_on_char '\n' body)))

let test_generator_preconditions_exit_123 () =
  (* the regular family's default degree 60 does not fit n = 25, nor does
     degree 30 fit n = 30 *)
  List.iter
    (fun args -> check_error args "dcs: Generators.random_regular: need 0 <= d < n")
    [ "spanner --n 25"; "graph --n 30 --degree 30"; "distributed --n 25" ]

let test_negative_trials_exit_123 () =
  (* rejected up front, not an uncaught Array.make exception or a "0/-2"
     success rate *)
  with_temp_file "n 3 3\n0 1\n1 2\n2 0\n" (fun graph ->
      List.iter
        (fun args -> check_error args "dcs: trials must be >= 0")
        [
          "spanner --family torus -n 25 --trials=-1";
          Printf.sprintf "verify -g %s --spanner %s --trials=-3" graph graph;
          "check --family torus -n 25 --trials=-2";
        ])

let test_weighted_pipeline_exits_0 () =
  (* graph --w-max -> weighted file -> bsw spanner -> verify, all green *)
  let gfile = Filename.temp_file "dcs_cli_wgraph" ".txt" in
  let sfile = Filename.temp_file "dcs_cli_wspan" ".txt" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove gfile;
      Sys.remove sfile)
    (fun () ->
      check Alcotest.int "weighted graph" 0
        (run_cli (Printf.sprintf "graph --family torus -n 64 --w-max 6 --seed 9 -o %s" gfile));
      check Alcotest.int "bsw spanner" 0
        (run_cli (Printf.sprintf "spanner --input %s --algorithm bsw --seed 9 -o %s" gfile sfile));
      check Alcotest.int "verify weighted spanner" 0
        (run_cli (Printf.sprintf "verify -g %s --spanner %s" gfile sfile)))

(* capture stdout of a CLI invocation *)
let read_cli args =
  let out = Filename.temp_file "dcs_cli_out" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code = Sys.command (Printf.sprintf "%s %s >%s 2>/dev/null" cli args out) in
      let ic = open_in out in
      let body = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (code, body))

(* zero sampled routings measure nothing: check refuses to print a rho,
   spanner and verify say the matching congestion was not measured *)
let test_zero_trials () =
  check_error "check --family regular --n 64 --degree 12 --trials 0"
    "dcs: rho (Definition 4) needs at least one sampled routing (--trials >= 1)";
  let code, body = read_cli "spanner --family regular --n 64 --degree 12 --trials 0" in
  check Alcotest.int "spanner --trials 0 exits 0" 0 code;
  check Alcotest.bool "spanner: not measured" true
    (body_contains body "matching congestion: not measured (--trials 0)");
  check Alcotest.bool "spanner: no 0-trial mean" false (body_contains body "over 0 trials");
  with_temp_file "n 3 3\n0 1\n1 2\n2 0\n" (fun graph ->
      let code, body =
        read_cli (Printf.sprintf "verify -g %s --spanner %s --trials 0" graph graph)
      in
      check Alcotest.int "verify --trials 0 exits 0" 0 code;
      check Alcotest.bool "verify: not measured" true
        (body_contains body "matching congestion stretch: not measured (--trials 0)");
      check Alcotest.bool "verify: no 0-trial mean" false (body_contains body "over 0 trials"))

let test_list_names_every_construction () =
  let code, body = read_cli "list" in
  check Alcotest.int "list exits 0" 0 code;
  List.iter
    (fun name ->
      check Alcotest.bool (Printf.sprintf "list shows %S" name) true (body_contains body name))
    Construction.names

let test_list_json_is_registry () =
  let code, body = read_cli "list --json" in
  check Alcotest.int "list --json exits 0" 0 code;
  check Alcotest.string "payload is Construction.to_json" (Construction.to_json ()) body

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* [--input] overrides the generator flags: each one given next to it is
   named on stderr, while stdout and the exit status stay as they are, and
   [graph] names the file where it would name a family *)
let test_input_names_ignored_flags () =
  with_temp_file "n 4 3\n0 1\n1 2\n2 3\n" (fun graph ->
      let out = Filename.temp_file "dcs_cli_out" ".txt" in
      let err = Filename.temp_file "dcs_cli_err" ".txt" in
      Fun.protect
        ~finally:(fun () ->
          Sys.remove out;
          Sys.remove err)
        (fun () ->
          let spanner flags =
            let code =
              Sys.command
                (Printf.sprintf "%s spanner --input %s -a greedy --seed 3%s >%s 2>%s" cli graph
                   flags out err)
            in
            (code, read_file out, read_file err)
          in
          let code, plain, quiet = spanner "" in
          check Alcotest.int "plain run exits 0" 0 code;
          check Alcotest.string "plain run warns nothing" "" quiet;
          let code', flagged, warning =
            spanner " --family regular --n 999 --degree 3 --prob 0.5 --w-max 8"
          in
          check Alcotest.int "same exit status" code code';
          check Alcotest.string "same stdout" plain flagged;
          List.iter
            (fun flag ->
              check Alcotest.bool (flag ^ " named on stderr") true (body_contains warning flag))
            [ "--family"; "--n"; "--degree"; "--prob"; "--w-max" ]);
      let code, body = read_cli (Printf.sprintf "graph --input %s --family expander" graph) in
      check Alcotest.int "graph --input exits 0" 0 code;
      check Alcotest.bool "graph names the file" true (body_contains body ("input:       " ^ graph));
      check Alcotest.bool "graph names no family" false (body_contains body "family:"))

let test_profile_prints_breakdown () =
  let code, body =
    read_cli "faults --family regular -n 60 -d 8 --fail-rate 0.1 --seed 7 --profile"
  in
  check Alcotest.int "faults --profile exits 0" 0 code;
  check Alcotest.bool "profile table printed" true (body_contains body "span");
  check Alcotest.bool "per-span GC attribution shown" true (body_contains body "repair.run")

let test_log_writes_jsonl () =
  let log = Filename.temp_file "dcs_cli_log" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log)
    (fun () ->
      check Alcotest.int "faults --log exits 0" 0
        (run_cli
           (Printf.sprintf "faults --family regular -n 60 -d 8 --fail-rate 0.1 --seed 7 --log %s"
              log));
      let body = read_file log in
      check Alcotest.bool "log is non-empty" true (String.length body > 0);
      check Alcotest.bool "entries carry event names" true (body_contains body "\"event\":");
      (* every line is one JSON object: starts '{', ends '}' *)
      String.split_on_char '\n' body
      |> List.iter (fun line ->
             if String.length line > 0 then
               check Alcotest.bool "line is a JSON object" true
                 (line.[0] = '{' && line.[String.length line - 1] = '}')))

(* ---- soak subcommand -------------------------------------------------- *)

let soak_args json =
  Printf.sprintf
    "soak --family regular -n 60 -d 8 --events 120 --batch 30 --seed 11 --json %s" json

let test_soak_json_report () =
  let json = Filename.temp_file "dcs_cli_soak" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove json)
    (fun () ->
      check Alcotest.int "soak runs certified" 0 (run_cli (soak_args json));
      let body = read_file json in
      List.iter
        (fun key ->
          check Alcotest.bool (Printf.sprintf "report has %S" key) true
            (body_contains body (Printf.sprintf "\"%s\"" key)))
        [
          "schema"; "plan"; "seed"; "alpha"; "certified_batches"; "final";
          "certified"; "traffic_stretch"; "batches"; "swept"; "groups";
        ];
      check Alcotest.bool "schema is dcs-soak/1" true (body_contains body "dcs-soak/1"))

let test_soak_same_seed_byte_identical () =
  let a = Filename.temp_file "dcs_cli_soak_a" ".json" in
  let b = Filename.temp_file "dcs_cli_soak_b" ".json" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ a; b ])
    (fun () ->
      check Alcotest.int "first run" 0 (run_cli (soak_args a));
      check Alcotest.int "second run" 0 (run_cli (soak_args b));
      check Alcotest.string "same seed, byte-identical JSON" (read_file a) (read_file b))

let test_soak_bad_plan_exits_123 () =
  check Alcotest.int "unknown churn plan" 123
    (run_cli "soak --family torus -n 25 --events 10 --plan chaotic")

(* ---- bench regression gate (exit codes 0 / 1 / 2) -------------------- *)

let bench = Filename.concat Filename.parent_dir_name (Filename.concat "bench" "main.exe")

let run_bench args =
  Sys.command (Printf.sprintf "DCS_BENCH_SCALE=quick %s %s >/dev/null 2>&1" bench args)

let test_bench_compare_gate () =
  let baseline = Filename.temp_file "dcs_bench_base" ".json" in
  let munged = Filename.temp_file "dcs_bench_munged" ".json" in
  let garbage = Filename.temp_file "dcs_bench_garbage" ".json" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ baseline; munged; garbage ])
    (fun () ->
      check Alcotest.int "write-baseline exits 0" 0
        (run_bench (Printf.sprintf "lemmas --write-baseline %s" baseline));
      check Alcotest.int "clean compare exits 0" 0
        (run_bench (Printf.sprintf "lemmas --compare %s" baseline));
      (* shrink every stable value by an order of magnitude: the re-run is
         now way outside the tolerance band and must fail the gate *)
      let body = read_file baseline in
      let oc = open_out munged in
      String.iteri
        (fun i c ->
          output_char oc c;
          if c = ':' && i >= 7 && String.sub body (i - 7) 7 = "\"value\"" then output_char oc '9')
        body;
      close_out oc;
      check Alcotest.int "regressed compare exits 1" 1
        (run_bench (Printf.sprintf "lemmas --compare %s" munged));
      let oc = open_out garbage in
      output_string oc "not a baseline document";
      close_out oc;
      check Alcotest.int "unusable baseline exits 2" 2
        (run_bench (Printf.sprintf "lemmas --compare %s" garbage));
      check Alcotest.int "bad --tolerance exits 2" 2
        (run_bench (Printf.sprintf "lemmas --compare %s --tolerance nope" baseline)))

let () =
  Alcotest.run "cli"
    [
      ( "exit-codes",
        [
          Alcotest.test_case "binary exists" `Quick test_cli_exists;
          Alcotest.test_case "malformed graph" `Quick test_malformed_graph_exits_123;
          Alcotest.test_case "malformed problem" `Quick test_malformed_problem_exits_123;
          Alcotest.test_case "wellformed graph" `Quick test_wellformed_graph_exits_0;
          Alcotest.test_case "bad fault mode" `Quick test_faults_bad_mode_exits_123;
          Alcotest.test_case "unknown algorithm" `Quick test_unknown_algorithm_exits_123;
          Alcotest.test_case "bad edge weight" `Quick test_bad_weight_exits_123;
          Alcotest.test_case "negative w-max" `Quick test_negative_w_max_exits_123;
          Alcotest.test_case "generator preconditions" `Quick
            test_generator_preconditions_exit_123;
          Alcotest.test_case "negative trials" `Quick test_negative_trials_exit_123;
          Alcotest.test_case "zero trials" `Quick test_zero_trials;
          Alcotest.test_case "--input names ignored flags" `Quick test_input_names_ignored_flags;
        ] );
      ( "weighted",
        [ Alcotest.test_case "graph/spanner/verify pipeline" `Quick test_weighted_pipeline_exits_0 ] );
      ( "list",
        [
          Alcotest.test_case "names every construction" `Quick test_list_names_every_construction;
          Alcotest.test_case "json matches registry" `Quick test_list_json_is_registry;
        ] );
      ("faults", [ Alcotest.test_case "json report" `Quick test_faults_json_report ]);
      ( "soak",
        [
          Alcotest.test_case "json report" `Quick test_soak_json_report;
          Alcotest.test_case "same seed byte-identical" `Quick test_soak_same_seed_byte_identical;
          Alcotest.test_case "bad plan" `Quick test_soak_bad_plan_exits_123;
        ] );
      ( "observability",
        [
          Alcotest.test_case "--profile prints breakdown" `Quick test_profile_prints_breakdown;
          Alcotest.test_case "--log writes jsonl" `Quick test_log_writes_jsonl;
        ] );
      ("bench", [ Alcotest.test_case "compare gate exit codes" `Quick test_bench_compare_gate ]);
    ]
