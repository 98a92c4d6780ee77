(* Tests for dcs_obs: span recording and Chrome-trace export, the sharded
   metrics registry under domain fan-out, disabled-mode silence, and the
   machine-readable report formats the dumps share their escaping with. *)

let check = Alcotest.check

(* ---- a minimal JSON reader (no external dependency) ----------------- *)

type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

exception Bad of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let fail msg = raise (Bad (Printf.sprintf "%s at %d" msg !pos)) in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %C" c)
  in
  let lit word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
          incr pos;
          if !pos >= n then fail "bad escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "bad \\u";
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              pos := !pos + 4;
              (* the emitters only escape ASCII control chars this way *)
              if code < 128 then Buffer.add_char b (Char.chr code)
              else Buffer.add_string b (Printf.sprintf "\\u%04x" code)
          | c -> fail (Printf.sprintf "bad escape %C" c));
          incr pos;
          go ()
      | c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      incr pos
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let rec members () =
            skip_ws ();
            let k = string_body () in
            skip_ws ();
            expect ':';
            let v = value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                members ()
            | Some '}' -> incr pos
            | _ -> fail "expected , or }"
          in
          members ();
          Obj (List.rev !fields)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [] in
          let rec elements () =
            let v = value () in
            items := v :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elements ()
            | Some ']' -> incr pos
            | _ -> fail "expected , or ]"
          in
          elements ();
          List (List.rev !items)
        end
    | Some '"' -> Str (string_body ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some _ -> number ()
    | None -> fail "unexpected end"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let member k = function
  | Obj fields -> ( match List.assoc_opt k fields with Some v -> v | None -> Null)
  | _ -> Null

let num_of = function Num f -> f | _ -> nan

(* Observability state is process-global; every test starts from a clean,
   enabled (or explicitly disabled) slate and restores "off" afterwards. *)
let with_obs ~tracing ~metrics f =
  Trace.clear ();
  Metrics.reset ();
  Obs.set_tracing tracing;
  Obs.set_metrics metrics;
  Fun.protect
    ~finally:(fun () ->
      Obs.set_tracing false;
      Obs.set_metrics false)
    f

(* ---- tracing -------------------------------------------------------- *)

let test_span_nesting () =
  with_obs ~tracing:true ~metrics:false (fun () ->
      let r =
        Trace.with_span ~name:"outer" (fun () ->
            let a = Trace.with_span ~name:"inner_a" (fun () -> 1) in
            let b = Trace.with_span ~name:"inner_b" (fun () -> 2) in
            a + b)
      in
      check Alcotest.int "with_span is transparent" 3 r;
      let spans = Trace.snapshot () in
      check Alcotest.int "three spans recorded" 3 (List.length spans);
      let find name = List.find (fun s -> s.Trace.name = name) spans in
      let outer = find "outer" and ia = find "inner_a" and ib = find "inner_b" in
      let inside inner =
        inner.Trace.ts_us >= outer.Trace.ts_us
        && inner.Trace.ts_us +. inner.Trace.dur_us <= outer.Trace.ts_us +. outer.Trace.dur_us
      in
      check Alcotest.bool "inner_a contained in outer" true (inside ia);
      check Alcotest.bool "inner_b contained in outer" true (inside ib);
      check Alcotest.bool "inners do not overlap" true
        (ia.Trace.ts_us +. ia.Trace.dur_us <= ib.Trace.ts_us))

let test_span_survives_raise () =
  with_obs ~tracing:true ~metrics:false (fun () ->
      (try Trace.with_span ~name:"doomed" (fun () -> failwith "boom") with Failure _ -> ());
      let spans = Trace.snapshot () in
      check Alcotest.int "span recorded despite the raise" 1 (List.length spans))

let test_trace_json_well_formed () =
  with_obs ~tracing:true ~metrics:false (fun () ->
      Trace.with_span
        ~args:[ ("note", "quote \" backslash \\ newline \n done") ]
        ~name:"weird \"name\"\n"
        (fun () -> Trace.with_span ~name:"child" (fun () -> ()));
      let doc = parse_json (Trace.to_json ()) in
      match member "traceEvents" doc with
      | List events ->
          let spans = List.filter (fun e -> member "ph" e = Str "X") events in
          let counters = List.filter (fun e -> member "ph" e = Str "C") events in
          check Alcotest.int "two complete events" 2 (List.length spans);
          List.iter
            (fun e ->
              check Alcotest.bool "has name" true (member "name" e <> Null);
              check Alcotest.bool "dur is a number" false (Float.is_nan (num_of (member "dur" e)));
              check Alcotest.bool "major GC delta is a number" false
                (Float.is_nan (num_of (member "major_collections" (member "args" e)))))
            spans;
          (* every span close emits one memory counter sample *)
          check Alcotest.bool "memory counter events present" true (List.length counters >= 1);
          List.iter
            (fun e ->
              check Alcotest.bool "counter named memory" true (member "name" e = Str "memory");
              check Alcotest.bool "heap_words series present" false
                (Float.is_nan (num_of (member "heap_words" (member "args" e)))))
            counters
      | _ -> Alcotest.fail "traceEvents missing")

let test_trace_summary () =
  with_obs ~tracing:true ~metrics:false (fun () ->
      for _ = 1 to 3 do
        Trace.with_span ~name:"phase" (fun () -> ())
      done;
      match Trace.summary () with
      | [ ("phase", 3, total) ] -> check Alcotest.bool "total >= 0" true (total >= 0.0)
      | _ -> Alcotest.fail "expected a single aggregated row")

(* ---- metrics -------------------------------------------------------- *)

let test_counter_parallel_fanout () =
  with_obs ~tracing:false ~metrics:true (fun () ->
      let c = Metrics.counter "test.fanout" in
      let n = 1000 in
      let expected = n * (n - 1) / 2 in
      for run = 1 to 3 do
        Metrics.reset ();
        let out =
          Parallel.map_range ~domains:4 n (fun i ->
              Metrics.add c i;
              i)
        in
        check Alcotest.int "map_range output intact" n (Array.length out);
        check Alcotest.int
          (Printf.sprintf "shards fold to the exact total (run %d)" run)
          expected (Metrics.counter_value c)
      done)

let test_gauge_last_and_peak () =
  with_obs ~tracing:false ~metrics:true (fun () ->
      let g = Metrics.gauge "test.gauge" in
      List.iter (Metrics.set_gauge g) [ 3; 17; 5 ];
      check Alcotest.int "last" 5 (Metrics.gauge_last g);
      check Alcotest.int "peak" 17 (Metrics.gauge_peak g))

let test_histo_stats () =
  with_obs ~tracing:false ~metrics:true (fun () ->
      let h = Metrics.histo "test.histo" in
      List.iter (Metrics.observe h) [ 1; 2; 4; 100 ];
      let count, sum, mn, mx = Metrics.histo_stats h in
      check Alcotest.int "count" 4 count;
      check Alcotest.int "sum" 107 sum;
      check Alcotest.int "min" 1 mn;
      check Alcotest.int "max" 100 mx)

let test_metrics_json_folds_shards () =
  with_obs ~tracing:false ~metrics:true (fun () ->
      let c = Metrics.counter "test.folded" in
      ignore (Parallel.map_range ~domains:4 64 (fun i -> Metrics.add c 2; i));
      let doc = parse_json (Metrics.to_json ()) in
      let v = num_of (member "test.folded" (member "counters" doc)) in
      check (Alcotest.float 0.0) "one folded total in the dump" 128.0 v)

let test_disabled_mode_emits_nothing () =
  with_obs ~tracing:false ~metrics:false (fun () ->
      let c = Metrics.counter "test.silent" in
      let g = Metrics.gauge "test.silent_gauge" in
      let h = Metrics.histo "test.silent_histo" in
      let r =
        Trace.with_span ~name:"invisible" (fun () ->
            Metrics.incr c;
            Metrics.add c 41;
            Metrics.set_gauge g 9;
            Metrics.observe h 9;
            7)
      in
      check Alcotest.int "with_span still transparent" 7 r;
      check Alcotest.int "no spans" 0 (List.length (Trace.snapshot ()));
      check Alcotest.int "counter untouched" 0 (Metrics.counter_value c);
      check Alcotest.int "gauge untouched" 0 (Metrics.gauge_peak g);
      let count, _, _, _ = Metrics.histo_stats h in
      check Alcotest.int "histo untouched" 0 count)

let test_snapshot_counters () =
  with_obs ~tracing:false ~metrics:true (fun () ->
      Metrics.reset ();
      let hits = Metrics.counter "csr.snapshot_hits" in
      let builds = Metrics.counter "csr.snapshot_builds" in
      let g = Generators.torus 5 5 in
      ignore (Graph.snapshot g);
      ignore (Graph.snapshot g);
      ignore (Graph.snapshot g);
      check Alcotest.int "one build for a stable graph" 1 (Metrics.counter_value builds);
      check Alcotest.int "repeat snapshots hit" 2 (Metrics.counter_value hits);
      ignore (Graph.remove_edge g 0 1);
      ignore (Graph.snapshot g);
      check Alcotest.int "mutation forces a rebuild" 2 (Metrics.counter_value builds))

(* ---- report formats the dumps share their escaping with -------------- *)

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

let test_report_csv_quoting () =
  let t = Report.create ~title:"edge cases" ~columns:[ "plain"; "tricky" ] in
  Report.add_row t [ "a"; "has,comma" ];
  Report.add_row t [ "b"; "has \"quote\"" ];
  Report.add_row t [ "c"; "line\nbreak" ];
  let csv = Report.csv t in
  check Alcotest.bool "comma cell quoted" true (contains ~sub:"\"has,comma\"" csv);
  check Alcotest.bool "quote cell doubled" true (contains ~sub:"\"has \"\"quote\"\"\"" csv)

let test_report_json_escaping () =
  let t = Report.create ~title:"json \"title\"" ~columns:[ "c" ] in
  Report.add_row t [ "cell with \"quotes\" and \\ and \nnewline" ];
  Report.add_note t "a note";
  let doc = parse_json (Report.to_json t) in
  check Alcotest.string "title round-trips" "json \"title\""
    (match member "title" doc with Str s -> s | _ -> "?");
  (match member "rows" doc with
  | List [ List [ Str cell ] ] ->
      check Alcotest.string "cell round-trips" "cell with \"quotes\" and \\ and \nnewline" cell
  | _ -> Alcotest.fail "rows shape");
  match member "notes" doc with
  | List [ Str "a note" ] -> ()
  | _ -> Alcotest.fail "notes shape"

let test_percentile_extremes () =
  let xs = [| 5.0; 1.0; 9.0; 3.0 |] in
  check (Alcotest.float 0.0) "p0 is the minimum" 1.0 (Stats.percentile xs 0.0);
  check (Alcotest.float 0.0) "p100 is the maximum" 9.0 (Stats.percentile xs 100.0);
  check (Alcotest.float 0.0) "singleton at any p" 4.0 (Stats.percentile [| 4.0 |] 50.0)

(* ---- json_float edge values ------------------------------------------ *)

let test_json_float_non_finite () =
  check Alcotest.string "nan renders null" "null" (Obs.json_float nan);
  check Alcotest.string "+inf renders null" "null" (Obs.json_float infinity);
  check Alcotest.string "-inf renders null" "null" (Obs.json_float neg_infinity);
  check Alcotest.bool "finite value parses back" true
    (num_of (parse_json (Obs.json_float 2.5)) = 2.5)

(* ---- histogram buckets and quantiles --------------------------------- *)

let test_bucket_of_boundaries () =
  check Alcotest.int "v <= 0 lands in bucket 0" 0 (Metrics.bucket_of 0);
  check Alcotest.int "negative lands in bucket 0" 0 (Metrics.bucket_of (-7));
  check Alcotest.int "1 is bucket 1" 1 (Metrics.bucket_of 1);
  for k = 1 to 61 do
    let v = 1 lsl k in
    check Alcotest.int (Printf.sprintf "2^%d opens bucket %d" k (k + 1)) (k + 1)
      (Metrics.bucket_of v);
    check Alcotest.int (Printf.sprintf "2^%d - 1 closes bucket %d" k k) k
      (Metrics.bucket_of (v - 1))
  done;
  check Alcotest.int "max_int lands in bucket 62" 62 (Metrics.bucket_of max_int);
  check Alcotest.int "bucket 0 bound" 1 (Metrics.bucket_lt 0);
  check Alcotest.bool "saturated top bounds never go negative" true
    (Metrics.bucket_lt 62 = max_int && Metrics.bucket_lt 63 = max_int)

(* the inclusive lower bound of bucket [b]; mirrors the private bucket_lo *)
let bucket_lo b = if b <= 1 then 0 else 1 lsl (b - 1)

let prop_bucket_contains_value =
  QCheck.Test.make ~name:"bucket_of places v inside its [lo, lt) bucket" ~count:500
    QCheck.(int_range 1 max_int)
    (fun v ->
      let b = Metrics.bucket_of v in
      let lt = Metrics.bucket_lt b in
      v >= bucket_lo b && (v < lt || lt = max_int))

let prop_quantile_vs_oracle =
  (* the estimator interpolates inside the pow-2 bucket holding the target
     rank — the bucket of the exact nearest-rank answer from a sorted copy —
     and its midpoint convention can overshoot that bucket's upper bound by
     at most half a bucket width, so check the [lo, hi + width/2] band *)
  QCheck.Test.make ~name:"histo_quantile lands in the oracle's bucket" ~count:200
    QCheck.(pair (list_of_size (Gen.int_range 1 60) (int_range 1 100_000)) (int_range 0 100))
    (fun (vs, q100) ->
      vs = []
      (* the shrinker may go below the generator's size floor *)
      || with_obs ~tracing:false ~metrics:true (fun () ->
          let h = Metrics.histo "test.oracle" in
          List.iter (Metrics.observe h) vs;
          let q = float_of_int q100 /. 100.0 in
          let est = Metrics.histo_quantile h q in
          let sorted = Array.of_list (List.sort compare vs) in
          let target = q *. float_of_int (Array.length sorted - 1) in
          let oracle = sorted.(int_of_float target) in
          let b = Metrics.bucket_of oracle in
          let lo = float_of_int (bucket_lo b) and hi = float_of_int (Metrics.bucket_lt b) in
          est >= lo -. 1e-6 && est <= hi +. (0.5 *. (hi -. lo)) +. 1e-6))

let test_quantile_empty_and_clamp () =
  with_obs ~tracing:false ~metrics:true (fun () ->
      let e = Metrics.histo "test.q_empty" in
      check Alcotest.bool "empty histo quantile is nan" true
        (Float.is_nan (Metrics.histo_quantile e 0.5));
      let h = Metrics.histo "test.q_clamp" in
      List.iter (Metrics.observe h) [ 5; 5; 5; 5 ];
      check (Alcotest.float 0.0) "p0 clamps to min" 5.0 (Metrics.histo_quantile h 0.0);
      check (Alcotest.float 0.0) "p100 clamps to max" 5.0 (Metrics.histo_quantile h 1.0);
      let doc = parse_json (Metrics.to_json ()) in
      let empty = member "test.q_empty" (member "histograms" doc) in
      check Alcotest.bool "empty histo p50 renders null" true (member "p50" empty = Null);
      let filled = member "test.q_clamp" (member "histograms" doc) in
      let p50 = num_of (member "p50" filled)
      and p90 = num_of (member "p90" filled)
      and p99 = num_of (member "p99" filled) in
      check Alcotest.bool "p50/p90/p99 present and ordered" true
        ((not (Float.is_nan p50)) && p50 <= p90 && p90 <= p99))

let test_csv_quantile_parity () =
  with_obs ~tracing:false ~metrics:true (fun () ->
      let h = Metrics.histo "test.csv_parity" in
      List.iter (Metrics.observe h) [ 1; 3; 9; 27; 81 ];
      let csv = Metrics.to_csv () in
      List.iter
        (fun field ->
          check Alcotest.bool (field ^ " row present") true
            (contains ~sub:(Printf.sprintf "histo,test.csv_parity,%s," field) csv))
        [ "count"; "sum"; "mean"; "min"; "max"; "p50"; "p90"; "p99" ];
      check Alcotest.bool "per-bucket rows present" true
        (contains ~sub:"histo,test.csv_parity,bucket_lt_" csv))

let test_gauge_peak_across_domains () =
  with_obs ~tracing:false ~metrics:true (fun () ->
      let g = Metrics.gauge "test.domain_peak" in
      ignore
        (Parallel.map_range ~domains:4 64 (fun i ->
             Metrics.set_gauge g i;
             i));
      check Alcotest.int "peak folds the max over all domain shards" 63 (Metrics.gauge_peak g))

(* ---- structured logging ---------------------------------------------- *)

(* Log state is process-global like the rest of lib/obs: always restore
   "disabled" on the way out. *)
let with_log level f =
  Log.clear ();
  Log.set_level level;
  Fun.protect ~finally:Log.disable f

let test_log_threshold () =
  with_log Log.Warn (fun () ->
      Log.debug "lvl.debug";
      Log.info "lvl.info";
      Log.warn "lvl.warn";
      Log.error "lvl.error";
      let events = List.map (fun e -> e.Log.event) (Log.recent ()) in
      check (Alcotest.list Alcotest.string) "only >= warn recorded" [ "lvl.warn"; "lvl.error" ]
        events;
      check Alcotest.bool "enabled reflects the threshold" true
        (Log.enabled Log.Error && not (Log.enabled Log.Info)))

let test_log_render_jsonl () =
  with_log Log.Debug (fun () ->
      Log.info ~fields:[ ("k", "va\"l"); ("n", "7") ] "render.check";
      match Log.recent () with
      | [ e ] ->
          let doc = parse_json (Log.render e) in
          check Alcotest.bool "level field" true (member "level" doc = Str "info");
          check Alcotest.bool "event field" true (member "event" doc = Str "render.check");
          check Alcotest.bool "fields nest as an object" true
            (member "k" (member "fields" doc) = Str "va\"l");
          check Alcotest.bool "ts_us numeric" false (Float.is_nan (num_of (member "ts_us" doc)))
      | _ -> Alcotest.fail "expected exactly one entry")

let test_log_ring_overflow () =
  with_log Log.Debug (fun () ->
      for i = 1 to 1100 do
        Log.info ~fields:[ ("i", string_of_int i) ] "ring.entry"
      done;
      let entries = Log.recent () in
      check Alcotest.int "ring keeps the last 1024" 1024 (List.length entries);
      let first = List.hd entries and last = List.nth entries 1023 in
      check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        "oldest surviving entry is #77" [ ("i", "77") ] first.Log.fields;
      check (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.string))
        "newest entry is #1100" [ ("i", "1100") ] last.Log.fields)

let test_log_disabled_is_silent () =
  Log.disable ();
  Log.clear ();
  Log.warn "off.warn";
  Log.info "off.info";
  check Alcotest.int "nothing recorded when disabled" 0 (List.length (Log.recent ()))

(* ---- bench reports and the regression gate --------------------------- *)

let mk_report ?(block = "blk") metrics =
  let t = Bench_report.create ~block ~scale:"quick" in
  List.iter
    (fun (name, v, hib, stable) ->
      Bench_report.add t ~higher_is_better:hib ~stable ~units:"u" name v)
    metrics;
  t

let verdict_for metric verdicts =
  List.find (fun v -> v.Bench_report.v_metric = metric) verdicts

let test_bench_report_json_shape () =
  let t = mk_report [ ("a.count", 42.0, false, true); ("a.wall", nan, false, false) ] in
  check Alcotest.string "block accessor" "blk" (Bench_report.block_name t);
  check Alcotest.int "rows kept in add order" 2 (List.length (Bench_report.metrics t));
  (try
     Bench_report.add t ~units:"u" "" 1.0;
     Alcotest.fail "empty metric name must be rejected"
   with Invalid_argument _ -> ());
  let doc = parse_json (Bench_report.to_json t) in
  check Alcotest.bool "schema tag" true (member "schema" doc = Str "dcs-bench/1");
  check Alcotest.bool "block name" true (member "block" doc = Str "blk");
  check Alcotest.bool "scale recorded" true (member "scale" doc = Str "quick");
  check Alcotest.bool "domains numeric" false (Float.is_nan (num_of (member "domains" doc)));
  match member "metrics" doc with
  | List [ a; wall ] ->
      check Alcotest.bool "metric name" true (member "name" a = Str "a.count");
      check (Alcotest.float 0.0) "metric value" 42.0 (num_of (member "value" a));
      check Alcotest.bool "stable flag" true (member "stable" a = Bool true);
      check Alcotest.bool "nan value renders null" true (member "value" wall = Null)
  | _ -> Alcotest.fail "metrics shape"

let test_bench_compare_directions () =
  let base =
    Bench_report.baseline_to_json
      [ mk_report [ ("cost", 100.0, false, true); ("wins", 100.0, true, true) ] ]
  in
  let run cost wins tolerance =
    match
      Bench_report.compare_json ~baseline:base ~tolerance
        [ mk_report [ ("cost", cost, false, true); ("wins", wins, true, true) ] ]
    with
    | Ok vs -> vs
    | Error msg -> Alcotest.fail msg
  in
  let vs = run 103.0 100.0 2.0 in
  check Alcotest.bool "cost +3% past 2% regresses" true
    (verdict_for "cost" vs).Bench_report.v_regressed;
  check Alcotest.bool "wins flat is fine" false (verdict_for "wins" vs).Bench_report.v_regressed;
  let vs = run 103.0 100.0 5.0 in
  check Alcotest.bool "cost +3% within 5% passes" false
    (verdict_for "cost" vs).Bench_report.v_regressed;
  let vs = run 90.0 97.0 2.0 in
  check Alcotest.bool "cost improving never regresses" false
    (verdict_for "cost" vs).Bench_report.v_regressed;
  check Alcotest.bool "wins -3% past 2% regresses" true
    (verdict_for "wins" vs).Bench_report.v_regressed;
  check Alcotest.bool "delta is signed" true ((verdict_for "wins" vs).Bench_report.v_delta_pct < 0.0)

let test_bench_compare_errors () =
  let base = Bench_report.baseline_to_json [ mk_report [ ("cost", 100.0, false, true) ] ] in
  (* a baseline metric the current run no longer reports always regresses *)
  (match
     Bench_report.compare_json ~baseline:base ~tolerance:50.0
       [ mk_report [ ("other", 1.0, false, true) ] ]
   with
  | Ok vs ->
      let v = verdict_for "cost" vs in
      check Alcotest.bool "missing metric regresses" true v.Bench_report.v_regressed;
      check Alcotest.bool "missing metric reported as nan" true
        (Float.is_nan v.Bench_report.v_current)
  | Error msg -> Alcotest.fail msg);
  (* blocks that did not run are skipped; matching none is an error *)
  (match
     Bench_report.compare_json ~baseline:base ~tolerance:2.0 [ mk_report ~block:"zzz" [] ]
   with
  | Ok _ -> Alcotest.fail "no matched blocks must be an error"
  | Error _ -> ());
  (* scale mismatch is an error, not a silent pass *)
  let t = Bench_report.create ~block:"blk" ~scale:"standard" in
  (match Bench_report.compare_json ~baseline:base ~tolerance:2.0 [ t ] with
  | Ok _ -> Alcotest.fail "scale mismatch must be an error"
  | Error _ -> ());
  match Bench_report.compare_json ~baseline:"not json at all" ~tolerance:2.0 [ mk_report [] ] with
  | Ok _ -> Alcotest.fail "garbage baseline must be an error"
  | Error _ -> ()

let () =
  Alcotest.run "obs"
    [
      ( "trace",
        [
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "span survives raise" `Quick test_span_survives_raise;
          Alcotest.test_case "json well-formed" `Quick test_trace_json_well_formed;
          Alcotest.test_case "summary aggregates" `Quick test_trace_summary;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "parallel fan-out exact" `Quick test_counter_parallel_fanout;
          Alcotest.test_case "gauge last/peak" `Quick test_gauge_last_and_peak;
          Alcotest.test_case "histo stats" `Quick test_histo_stats;
          Alcotest.test_case "json folds shards" `Quick test_metrics_json_folds_shards;
          Alcotest.test_case "disabled emits nothing" `Quick test_disabled_mode_emits_nothing;
          Alcotest.test_case "snapshot hit/build counters" `Quick test_snapshot_counters;
          Alcotest.test_case "json_float non-finite" `Quick test_json_float_non_finite;
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_of_boundaries;
          Alcotest.test_case "quantile empty/clamp/json" `Quick test_quantile_empty_and_clamp;
          Alcotest.test_case "csv quantile parity" `Quick test_csv_quantile_parity;
          Alcotest.test_case "gauge peak across domains" `Quick test_gauge_peak_across_domains;
          QCheck_alcotest.to_alcotest prop_bucket_contains_value;
          QCheck_alcotest.to_alcotest prop_quantile_vs_oracle;
        ] );
      ( "log",
        [
          Alcotest.test_case "level threshold" `Quick test_log_threshold;
          Alcotest.test_case "jsonl render" `Quick test_log_render_jsonl;
          Alcotest.test_case "ring overflow" `Quick test_log_ring_overflow;
          Alcotest.test_case "disabled is silent" `Quick test_log_disabled_is_silent;
        ] );
      ( "bench_report",
        [
          Alcotest.test_case "json shape" `Quick test_bench_report_json_shape;
          Alcotest.test_case "compare directions" `Quick test_bench_compare_directions;
          Alcotest.test_case "compare errors" `Quick test_bench_compare_errors;
        ] );
      ( "report",
        [
          Alcotest.test_case "csv quoting" `Quick test_report_csv_quoting;
          Alcotest.test_case "json escaping" `Quick test_report_json_escaping;
          Alcotest.test_case "percentile extremes" `Quick test_percentile_extremes;
        ] );
    ]
