(* Dcs_lint tests: every pass must fire on a minimal bad fixture and stay
   quiet on the matching clean one; the passes must see through module
   aliases and opens; a file the passes cannot see (no .cmt, an unreadable
   one, a syntax error) must be one error finding, never a silent skip; the
   repo itself must be lint-clean under the checked-in lint.allow with every
   file typed; the JSON report and the allowlist format must round-trip. *)

let check = Alcotest.check

let contains needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let fires name findings = check Alcotest.bool (name ^ " fires") true (findings <> [])

let clean name findings =
  check Alcotest.bool
    (Printf.sprintf "%s clean (got: %s)" name
       (String.concat "; " (List.map (fun f -> f.Lint_finding.msg) findings)))
    true (findings = [])

(* ---- fixture harness ----

   The passes read real .cmt files, so fixtures are compiled with ocamlc
   -bin-annot into a throwaway directory: stub dependencies (Graph, Csr,
   Generators, Stretch, Repair) at the root, the fixture modules under lib/
   so the lib-scoped rules apply.  A fixture path may name a subdirectory
   ("util/io_error.ml" is <dir>/lib/util/io_error.ml, so the scope
   exemptions are exercised) or a sibling of lib/ ("../bin/x.ml").
   Lint_driver.run is then pointed at <dir>/lib and <dir>/bin — its cmt
   discovery and load-path remapping find the fixture's artifacts the same
   way they find dune's. *)

let stub_graph =
  "type t = { n : int }\nlet make n = { n }\nlet n t = t.n\n\
   let snapshot (t : t) = t\nlet to_csr (t : t) = t\n"

let stub_csr = "type t = { deg : int array }\n"

let stub_generators = "let cycle n = Graph.make n\n"
let stub_stretch = "let violations (_ : Graph.t) : (int * int) list = []\n"
let stub_repair = "let run (_ : Graph.t) = 3\n"

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> output_string oc contents)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let sh cmd = if Sys.command cmd <> 0 then Alcotest.failf "command failed: %s" cmd

let with_tmp f =
  let dir = Filename.temp_file "dcs_lint" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

(* "util/io_error.ml" -> "lib/util/io_error.ml"; "../bin/x.ml" -> "bin/x.ml" *)
let project_path rel =
  if String.starts_with ~prefix:"../" rel then String.sub rel 3 (String.length rel - 3)
  else Filename.concat "lib" rel

let with_typed_project files f =
  with_tmp (fun dir ->
      let stubs =
        [
          ("graph.ml", stub_graph);
          ("csr.ml", stub_csr);
          ("generators.ml", stub_generators);
          ("stretch.ml", stub_stretch);
          ("repair.ml", stub_repair);
        ]
      in
      List.iter (fun (n, c) -> write_file (Filename.concat dir n) c) stubs;
      let paths = List.map (fun (n, _) -> project_path n) files in
      List.iter2
        (fun path (_, c) ->
          let path = Filename.concat dir path in
          mkdir_p (Filename.dirname path);
          write_file path c)
        paths files;
      let in_dir cmd = sh (Printf.sprintf "cd %s && %s" (Filename.quote dir) cmd) in
      in_dir ("ocamlc -bin-annot -c " ^ String.concat " " (List.map fst stubs));
      (* absolute include dirs, so the recorded load path finds the stubs *)
      let includes = List.sort_uniq compare (List.map Filename.dirname paths) in
      in_dir
        (Printf.sprintf "ocamlc -bin-annot %s -c %s"
           (String.concat " "
              (List.map (fun d -> "-I " ^ Filename.quote (Filename.concat dir d)) ("" :: includes)))
           (String.concat " " paths));
      f dir)

let lint ?allow dir =
  let roots = List.map (Filename.concat dir) [ "lib"; "bin" ] in
  Lint_driver.run ?allow ~roots:(List.filter Sys.file_exists roots) ()

let by_pass id (r : Lint_driver.result) =
  List.filter (fun f -> f.Lint_finding.pass = id) r.Lint_driver.findings

(* One fixture, compiled alone; the findings of pass [id] on it. *)
let run_pass id ~path src = with_typed_project [ (path, src) ] (fun dir -> by_pass id (lint dir))

(* ---- banned-api ---- *)

let test_banned_api () =
  let p = "routing/x.ml" in
  fires "failwith" (run_pass "banned-api" ~path:p {|let f () = failwith "boom"|});
  fires "Failure" (run_pass "banned-api" ~path:p {|let f () = raise (Failure "boom")|});
  fires "print" (run_pass "banned-api" ~path:p {|let f () = print_endline "hi"|});
  fires "printf" (run_pass "banned-api" ~path:p {|let f () = Printf.printf "hi"|});
  fires "eprintf" (run_pass "banned-api" ~path:p {|let f () = Printf.eprintf "hi"|});
  fires "to_csr" (run_pass "banned-api" ~path:p {|let f g = Graph.to_csr g|});
  fires "bare invalid_arg"
    (run_pass "banned-api" ~path:p {|let f () = invalid_arg "no prefix here"|});
  fires "bare Invalid_argument"
    (run_pass "banned-api" ~path:p {|let f () = raise (Invalid_argument "no prefix")|});
  clean "prefixed invalid_arg"
    (run_pass "banned-api" ~path:p {|let f () = invalid_arg "Routing.f: bad input"|});
  clean "colon prefix" (run_pass "banned-api" ~path:p {|let f () = invalid_arg "Graph: oops"|});
  clean "sprintf is fine"
    (run_pass "banned-api" ~path:p {|let f x = Printf.sprintf "%d" x|});
  clean "fprintf to channel is fine"
    (run_pass "banned-api" ~path:p {|let f oc = Printf.fprintf oc "row"|});
  clean "snapshot is fine" (run_pass "banned-api" ~path:p {|let f g = Graph.snapshot g|});
  clean "string literal not flagged"
    (run_pass "banned-api" ~path:p {|let f () = "failwith Printf.printf"|});
  (* scoping exemptions *)
  clean "io_error.ml may raise"
    (run_pass "banned-api" ~path:"util/io_error.ml" {|let f () = failwith "x"|});
  clean "report.ml may print"
    (run_pass "banned-api" ~path:"util/report.ml" {|let f () = Printf.printf "t"|});
  clean "obs may warn"
    (run_pass "banned-api" ~path:"obs/trace.ml" {|let f () = Printf.eprintf "w"|});
  (* a unit cannot name itself, so the lib/graph fixture is a neighbour of Graph *)
  clean "lib/graph may build CSRs"
    (run_pass "banned-api" ~path:"graph/bfs.ml" {|let f g = Graph.to_csr g|});
  clean "bin/ is out of scope"
    (run_pass "banned-api" ~path:"../bin/dcs_cli.ml" {|let f () = Printf.printf "t"|})

(* ---- unsafe-audit ---- *)

let test_unsafe_audit () =
  let kernel = "graph/bitmat.ml" in
  fires "unsafe without SAFETY"
    (run_pass "unsafe-audit" ~path:kernel {|let f a = Array.unsafe_get a 0|});
  fires "unsafe outside kernels, even with SAFETY"
    (run_pass "unsafe-audit" ~path:"spanner/dc.ml"
       "(* SAFETY: nope *)\nlet f a = Array.unsafe_get a 0");
  fires "bytes unsafe counted"
    (run_pass "unsafe-audit" ~path:"routing/x.ml" {|let f b = Bytes.unsafe_get b 0|});
  clean "SAFETY within window"
    (run_pass "unsafe-audit" ~path:kernel
       "(* SAFETY: i is bounded by construction *)\nlet f a = Array.unsafe_get a 0");
  clean "safe access" (run_pass "unsafe-audit" ~path:kernel {|let f a = a.(0)|});
  (* the marker must be close: > marker_window lines away does not count *)
  let far =
    "(* SAFETY: too far away *)\n" ^ String.concat "" (List.init 12 (fun _ -> "let _ = ()\n"))
    ^ "let f a = Array.unsafe_get a 0"
  in
  fires "SAFETY out of window" (run_pass "unsafe-audit" ~path:kernel far)

(* ---- par-hygiene: its fixtures, now judged by mutable-escape ---- *)

(* Importing Domain makes Worker a parallel user; aliasing State puts State
   in Worker's cmt_imports, so State is reachable whatever it defines. *)
let par_worker = "let tick () = Domain.cpu_relax ()\nmodule S = State\n"

let test_par_hygiene () =
  let escape ?(reachable = true) src =
    let worker = if reachable then [ ("foo/worker.ml", par_worker) ] else [] in
    with_typed_project
      (("foo/state.ml", src) :: worker)
      (fun dir -> by_pass "mutable-escape" (lint dir))
  in
  fires "toplevel ref" (escape {|let total = ref 0|});
  fires "toplevel Hashtbl" (escape {|let cache : (int, int) Hashtbl.t = Hashtbl.create 16|});
  fires "toplevel array" (escape {|let buf = Array.make 4 0|});
  fires "mutated record global"
    (escape "type r = { mutable x : int }\nlet st = { x = 0 }\nlet bump () = st.x <- st.x + 1");
  clean "annotated DOMAIN-SAFE" (escape "(* DOMAIN-SAFE: guarded by mutex m *)\nlet total = ref 0");
  clean "not reachable from parallel code" (escape ~reachable:false {|let total = ref 0|});
  clean "local mutable state is fine" (escape {|let f () = let acc = ref 0 in !acc|});
  clean "immutable toplevel" (escape {|let limit = 42|});
  clean "unmutated record is fine" (escape "type r = { mutable x : int }\nlet mk () = { x = 0 }")

(* ---- iface-coverage ---- *)

let test_iface_coverage () =
  let p = "foo/bar.ml" in
  fires "missing mli" (run_pass "iface-coverage" ~path:p "let x = 1");
  clean "mli present"
    (with_typed_project
       [ (p ^ "i", "val x : int\n"); (p, "let x = 1") ]
       (fun dir -> by_pass "iface-coverage" (lint dir)));
  clean "bin/ exempt" (run_pass "iface-coverage" ~path:"../bin/main.ml" "let x = 1")

(* ---- poly-compare ---- *)

let test_poly_compare () =
  let p = "spanner/x.ml" in
  fires "= on graph-typed ident"
    (run_pass "poly-compare" ~path:p {|let f (graph : Graph.t) h = graph = h|});
  fires "= on snapshot"
    (run_pass "poly-compare" ~path:p {|let f a b = Graph.snapshot a = Graph.snapshot b|});
  fires "compare on csr" (run_pass "poly-compare" ~path:p {|let f (csr : Csr.t) x = compare csr x|});
  fires "<> on generator result"
    (run_pass "poly-compare" ~path:p {|let f rng h = Generators.cycle 5 <> h|});
  (* a graph-looking name is not a graph type: the operands are polymorphic *)
  clean "= on a polymorphic ident named graph"
    (run_pass "poly-compare" ~path:p {|let f graph h = graph = h|});
  clean "ints are fine" (run_pass "poly-compare" ~path:p {|let f a b = a = b|});
  clean "counts are fine" (run_pass "poly-compare" ~path:p {|let f g h = Graph.n g = Graph.n h|});
  clean "physical identity is fine" (run_pass "poly-compare" ~path:p {|let f graph h = graph == h|})

(* ---- alias/open evasion ---- *)

let evade_src =
  "module C = Graph\n\
   let build g = C.to_csr g\n\
   open Graph\n\
   let build2 g = to_csr g\n\
   module A = Array\n\
   let got (a : int array) = A.unsafe_get a 0\n"

let test_typed_catches_alias_evasion () =
  with_typed_project [ ("evade.ml", evade_src) ] (fun dir ->
      let r = lint dir in
      check Alcotest.int "typed tier ran on the fixture" 1 r.Lint_driver.typed_files;
      let banned = by_pass "banned-api" r in
      check Alcotest.int "typed catches both evasions" 2 (List.length banned);
      check
        Alcotest.(list int)
        "at the alias and open call sites" [ 2; 4 ]
        (List.map (fun f -> f.Lint_finding.line) banned);
      List.iter
        (fun f ->
          check
            Alcotest.(option string)
            "resolved path recorded" (Some "Graph.to_csr") f.Lint_finding.resolved_path)
        banned;
      match by_pass "unsafe-audit" r with
      | [ f ] ->
          check
            Alcotest.(option string)
            "unsafe resolved through the alias" (Some "Array.unsafe_get")
            f.Lint_finding.resolved_path
      | fs -> Alcotest.failf "expected one unsafe-audit finding, got %d" (List.length fs))

(* ---- poly-compare through aliases and containers ---- *)

let pcmp_src =
  "type g_alias = Graph.t\n\
   let cmp (a : g_alias) (b : g_alias) = compare a b\n\
   let eq_list (a : Graph.t list) (b : Graph.t list) = a = b\n\
   let ok (a : int) (b : int) = compare a b\n\
   let shadow compare (a : Graph.t) (b : Graph.t) = compare (Graph.n a) (Graph.n b)\n"

let test_typed_poly_compare () =
  with_typed_project [ ("pcmp.ml", pcmp_src) ] (fun dir ->
      let found = by_pass "poly-compare" (lint dir) in
      check
        Alcotest.(list int)
        "alias and container flagged; int compare and shadowed compare not" [ 2; 3 ]
        (List.map (fun f -> f.Lint_finding.line) found);
      List.iter
        (fun f ->
          check
            Alcotest.(option string)
            "offending type recorded" (Some "Graph.t") f.Lint_finding.resolved_path)
        found)

(* ---- mutable-escape ---- *)

let state_bad =
  "let cache : (int, int) Hashtbl.t = Hashtbl.create 16\n\
   let get k = Hashtbl.find_opt cache k\n"

let state_safe =
  "(* DOMAIN-SAFE: populated before the domains spawn, read-only after *)\n\
   let cache : (int, int) Hashtbl.t = Hashtbl.create 16\n\
   let get k = Hashtbl.find_opt cache k\n"

(* Worker pulls in Domain (→ Stdlib__Domain in cmt_imports) and State, so
   the reachability closure marks State without any lexical hint in
   state.ml itself. *)
let worker_src = "let tick () = Domain.cpu_relax ()\nlet peek k = State.get k\n"

let test_mutable_escape () =
  with_typed_project
    [ ("state.ml", state_bad); ("worker.ml", worker_src) ]
    (fun dir ->
      match by_pass "mutable-escape" (lint dir) with
      | [ f ] ->
          check Alcotest.bool "warning severity" true
            (f.Lint_finding.severity = Lint_finding.Warning);
          check
            Alcotest.(option string)
            "mutable type recorded" (Some "Hashtbl.t") f.Lint_finding.resolved_path;
          check Alcotest.bool "points at state.ml" true
            (contains "state.ml" f.Lint_finding.file)
      | fs -> Alcotest.failf "expected one mutable-escape finding, got %d" (List.length fs));
  with_typed_project
    [ ("state.ml", state_safe); ("worker.ml", worker_src) ]
    (fun dir -> clean "DOMAIN-SAFE annotation" (by_pass "mutable-escape" (lint dir)));
  with_typed_project
    [ ("state.ml", state_bad) ]
    (fun dir -> clean "not reachable from Domain users" (by_pass "mutable-escape" (lint dir)))

(* ---- ignored-result ---- *)

let audit_src =
  "let check g = ignore (Stretch.violations g)\n\
   let check2 g = let _ = Stretch.violations g in ()\n\
   let sweep g = ignore (Repair.run g)\n\
   let ok g = List.length (Stretch.violations g)\n"

let test_ignored_result () =
  with_typed_project [ ("audit.ml", audit_src) ] (fun dir ->
      let found = by_pass "ignored-result" (lint dir) in
      check
        Alcotest.(list int)
        "ignore and let _ flagged; bound use not" [ 1; 2; 3 ]
        (List.map (fun f -> f.Lint_finding.line) found);
      check
        Alcotest.(list (option string))
        "resolved watchlist entries"
        [ Some "Stretch.violations"; Some "Stretch.violations"; Some "Repair.run" ]
        (List.map (fun f -> f.Lint_finding.resolved_path) found));
  with_typed_project
    [ ("audit.ml", "let ok g = List.length (Stretch.violations g)\n") ]
    (fun dir -> clean "bound result" (by_pass "ignored-result" (lint dir)))

(* ---- --strict: warnings promote to exit 3 ---- *)

let test_strict_exit () =
  (* .mli files keep iface-coverage quiet, so the only finding is the
     Warning-severity mutable-escape — the exact case --strict exists for *)
  let files =
    [
      ("state.mli", "val get : int -> int option\n");
      ("state.ml", state_bad);
      ("worker.mli", "val tick : unit -> unit\nval peek : int -> int option\n");
      ("worker.ml", worker_src);
    ]
  in
  with_typed_project files (fun dir ->
      let r = lint dir in
      check Alcotest.bool "warnings only" true
        (r.Lint_driver.findings <> []
        && List.for_all
             (fun f -> f.Lint_finding.severity = Lint_finding.Warning)
             r.Lint_driver.findings);
      check Alcotest.int "exit 0 without strict" 0 (Lint_driver.exit_code r);
      check Alcotest.int "exit 3 under strict" 3 (Lint_driver.exit_code ~strict:true r);
      let root = Filename.quote (Filename.concat dir "lib") in
      let exe = Filename.concat Filename.parent_dir_name (Filename.concat "bin" "dcs_lint.exe") in
      check Alcotest.int "exe exit 0 without --strict" 0
        (Sys.command (Printf.sprintf "%s %s > /dev/null" exe root));
      check Alcotest.int "exe exit 3 with --strict" 3
        (Sys.command (Printf.sprintf "%s --strict %s > /dev/null" exe root)))

(* ---- files the passes cannot see ---- *)

let test_parse_failure_is_a_finding () =
  with_tmp (fun dir ->
      write_file (Filename.concat dir "broken.ml") "let let let";
      let r = Lint_driver.run ~roots:[ dir ] () in
      check Alcotest.int "one finding" 1 (List.length r.Lint_driver.findings);
      match r.Lint_driver.findings with
      | [ f ] -> check Alcotest.string "parse pass" "parse" f.Lint_finding.pass
      | _ -> Alcotest.fail "expected exactly one parse finding")

let only_cmt_error (r : Lint_driver.result) =
  match r.Lint_driver.findings with
  | [ f ] ->
      check Alcotest.string "cmt pseudo-pass" "cmt" f.Lint_finding.pass;
      check Alcotest.bool "error severity" true (f.Lint_finding.severity = Lint_finding.Error);
      check Alcotest.int "not typed" 0 r.Lint_driver.typed_files;
      check Alcotest.int "exit 1" 1 (Lint_driver.exit_code r);
      f
  | fs -> Alcotest.failf "expected one cmt finding, got %d" (List.length fs)

(* An uncompiled file is an error, however innocent its text looks. *)
let test_no_cmt () =
  with_tmp (fun dir ->
      let lib = Filename.concat dir "lib" in
      Sys.mkdir lib 0o755;
      write_file (Filename.concat lib "peek.ml")
        "module A = Array\nlet peek (a : int array) = A.unsafe_get a 0\n";
      let f = only_cmt_error (Lint_driver.run ~roots:[ lib ] ()) in
      check Alcotest.bool "says there is no .cmt" true (contains "no .cmt" f.Lint_finding.msg))

let test_truncated_cmt () =
  with_typed_project [ ("evade.ml", evade_src) ] (fun dir ->
      let cmt = Filename.concat dir "lib/evade.cmt" in
      let head = In_channel.with_open_bin cmt (fun ic -> really_input_string ic 200) in
      Out_channel.with_open_bin cmt (fun oc -> output_string oc head);
      let f = only_cmt_error (lint dir) in
      check Alcotest.bool "names the unreadable file" true
        (contains "cannot read" f.Lint_finding.msg && contains "evade.cmt" f.Lint_finding.msg))

(* ---- end-to-end: the repo is lint-clean ---- *)

let repo_roots = [ "../lib"; "../bin"; "../bench" ]

let test_repo_is_lint_clean () =
  let allow =
    match Lint_allow.load "../lint.allow" with
    | Ok a -> a
    | Error msg -> Alcotest.failf "lint.allow unreadable: %s" msg
  in
  let r = Lint_driver.run ~allow ~roots:repo_roots () in
  check Alcotest.bool "scanned a realistic number of sources" true (r.Lint_driver.files_scanned > 50);
  check Alcotest.int "every scanned file typed" r.Lint_driver.files_scanned
    r.Lint_driver.typed_files;
  check
    Alcotest.(list string)
    "repo lint-clean" []
    (List.map
       (fun f -> Printf.sprintf "%s:%d %s: %s" f.Lint_finding.file f.line f.pass f.msg)
       r.Lint_driver.findings)

let test_every_pass_exercised_by_repo_kernels () =
  (* the unsafe-audit pass must actually see unsafe sites in the kernels:
     if the kernels drop Array.unsafe_*, the SAFETY convention (and this
     pass) silently stops being exercised *)
  let src =
    match Lint_source.load "../lib/graph/bfs_batch.ml" with
    | Ok s -> s
    | Error msg -> Alcotest.failf "cannot load bfs_batch.ml: %s" msg
  in
  let uses_unsafe =
    contains "Array.unsafe_get" src.Lint_source.text
    && contains "SAFETY:" src.Lint_source.text
  in
  check Alcotest.bool "kernels use justified unsafe accesses" true uses_unsafe

(* ---- JSON report ---- *)

let test_json_report () =
  let r = Lint_driver.run ~roots:repo_roots () in
  let json = Lint_driver.to_json r in
  List.iter
    (fun key ->
      check Alcotest.bool (Printf.sprintf "json has %S" key) true
        (contains (Printf.sprintf "\"%s\"" key) json))
    [ "schema"; "findings"; "summary"; "files"; "typed"; "errors"; "warnings"; "suppressed" ];
  check Alcotest.bool "schema is v2" true (contains "\"schema\":\"dcs-lint/2\"" json);
  (* escaping: a finding whose message embeds quotes/newlines must stay
     well-formed (spot-check the escaper directly) *)
  check Alcotest.string "escape" {|a\"b\\c\nd|} (Lint_finding.json_escape "a\"b\\c\nd");
  let f =
    Lint_finding.make ~pass:"banned-api" ~file:"lib/x.ml" ~line:3 ~col:2
      ~severity:Lint_finding.Error "uses \"quotes\""
  in
  check Alcotest.bool "finding json shape" true
    (Lint_finding.to_json f
    = {|{"pass":"banned-api","file":"lib/x.ml","line":3,"col":2,"severity":"error","msg":"uses \"quotes\""}|}
    );
  let fr =
    Lint_finding.make ~resolved_path:"Graph.to_csr" ~pass:"banned-api" ~file:"lib/x.ml"
      ~line:3 ~col:2 ~severity:Lint_finding.Error "m"
  in
  check Alcotest.bool "resolved_path serialized" true
    (contains {|"resolved_path":"Graph.to_csr"|} (Lint_finding.to_json fr))

(* ---- allowlist ---- *)

let test_allowlist_round_trip () =
  let entries =
    [
      { Lint_allow.pass = "banned-api"; path = "lib/routing/valiant.ml"; substring = "" };
      { Lint_allow.pass = "*"; path = "lib/obs/trace.ml"; substring = "top-level mutable state" };
    ]
  in
  (match Lint_allow.of_string (Lint_allow.to_string entries) with
  | Ok parsed -> check Alcotest.bool "round trip" true (parsed = entries)
  | Error msg -> Alcotest.failf "round trip failed: %s" msg);
  (* comments and blanks vanish, including tab-only lines *)
  (match Lint_allow.of_string "# header\n\n  # indented comment\n\t \n \t# tabbed comment\n" with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "comments produced entries"
  | Error msg -> Alcotest.failf "comment parse failed: %s" msg);
  (* tabs and runs of whitespace separate fields like single spaces, and the
     message substring is stored whitespace-normal *)
  (match Lint_allow.of_string "banned-api\tlib/x.ml \t failwith   here \n" with
  | Ok [ e ] ->
      check Alcotest.string "tab-separated pass" "banned-api" e.Lint_allow.pass;
      check Alcotest.string "tab-separated path" "lib/x.ml" e.Lint_allow.path;
      check Alcotest.string "normalized substring" "failwith here" e.Lint_allow.substring
  | Ok es -> Alcotest.failf "expected one entry, got %d" (List.length es)
  | Error msg -> Alcotest.failf "tab parse failed: %s" msg);
  check Alcotest.string "normalize_ws collapses runs" "a b c"
    (Lint_allow.normalize_ws " a\t\tb \r c ");
  (* matching: pass, path suffix (whole segments), message substring *)
  let f =
    Lint_finding.make ~pass:"mutable-escape" ~file:"../lib/obs/trace.ml" ~line:15 ~col:0
      ~severity:Lint_finding.Warning "top-level mutable state: spans is a ref cell"
  in
  check Alcotest.bool "wildcard + suffix + substring" true (Lint_allow.matches entries f);
  check Alcotest.bool "wrong path" false
    (Lint_allow.matches entries { f with Lint_finding.file = "../lib/obs/metrics.ml" });
  check Alcotest.bool "partial segment does not match" false
    (Lint_allow.matches
       [ { Lint_allow.pass = "*"; path = "race.ml"; substring = "" } ]
       f);
  check Alcotest.bool "wrong substring" false
    (Lint_allow.matches entries { f with Lint_finding.msg = "something else" });
  (* the finding message is matched whitespace-normal too: internal tabs or
     doubled spaces in the rendered message cannot defeat a suppression *)
  check Alcotest.bool "ws-insensitive message match" true
    (Lint_allow.matches entries
       { f with Lint_finding.msg = "top-level \t mutable  state: spans" })

let test_allowlist_suppresses () =
  (* suppress a synthetic violation end-to-end through the driver *)
  with_typed_project [ ("naughty.ml", "let f () = failwith \"x\"\n") ] (fun dir ->
      let without = lint dir in
      (* naughty.ml also misses its mli: expect both passes to fire *)
      check Alcotest.bool "fires without allowlist" true
        (List.length without.Lint_driver.findings >= 2);
      let allow =
        [
          { Lint_allow.pass = "banned-api"; path = "lib/naughty.ml"; substring = "failwith" };
          { Lint_allow.pass = "iface-coverage"; path = "lib/naughty.ml"; substring = "" };
        ]
      in
      let r = lint ~allow dir in
      check Alcotest.int "all suppressed" 0 (List.length r.Lint_driver.findings);
      check Alcotest.bool "suppression counted" true (r.Lint_driver.suppressed >= 2);
      check Alcotest.int "exit 0 when suppressed" 0 (Lint_driver.exit_code r);
      check Alcotest.int "exit 1 otherwise" 1 (Lint_driver.exit_code without))

(* ---- the executable ---- *)

let lint_exe =
  Filename.concat Filename.parent_dir_name (Filename.concat "bin" "dcs_lint.exe")

let test_exe_json_clean () =
  check Alcotest.bool "dcs_lint.exe built" true (Sys.file_exists lint_exe);
  let out = Filename.temp_file "dcs_lint_out" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s --json --strict --allow ../lint.allow ../lib ../bin ../bench > %s"
             lint_exe out)
      in
      check Alcotest.int "exit 0 on clean repo (even strict)" 0 code;
      let body = In_channel.with_open_text out In_channel.input_all in
      check Alcotest.bool "json body" true
        (String.length body > 0 && body.[0] = '{');
      check Alcotest.bool "v2 schema" true (contains "\"schema\":\"dcs-lint/2\"" body);
      check Alcotest.bool "empty findings array" true (contains "\"findings\":[\n]" body);
      check Alcotest.bool "typed coverage reported" true (contains "\"typed\":" body);
      check Alcotest.bool "summary present" true (contains "\"summary\"" body))

let () =
  Alcotest.run "lint"
    [
      ( "passes",
        [
          Alcotest.test_case "banned-api" `Quick test_banned_api;
          Alcotest.test_case "unsafe-audit" `Quick test_unsafe_audit;
          Alcotest.test_case "par-hygiene" `Quick test_par_hygiene;
          Alcotest.test_case "iface-coverage" `Quick test_iface_coverage;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "parse failure" `Quick test_parse_failure_is_a_finding;
        ] );
      ( "typed",
        [
          Alcotest.test_case "alias/open evasion" `Quick test_typed_catches_alias_evasion;
          Alcotest.test_case "poly-compare aliases" `Quick test_typed_poly_compare;
          Alcotest.test_case "mutable-escape" `Quick test_mutable_escape;
          Alcotest.test_case "ignored-result" `Quick test_ignored_result;
          Alcotest.test_case "strict exit" `Quick test_strict_exit;
          Alcotest.test_case "no cmt" `Quick test_no_cmt;
          Alcotest.test_case "truncated cmt" `Quick test_truncated_cmt;
        ] );
      ( "repo",
        [
          Alcotest.test_case "lint-clean" `Quick test_repo_is_lint_clean;
          Alcotest.test_case "kernels exercised" `Quick test_every_pass_exercised_by_repo_kernels;
        ] );
      ( "output",
        [
          Alcotest.test_case "json report" `Quick test_json_report;
          Alcotest.test_case "exe --json" `Quick test_exe_json_clean;
        ] );
      ( "allowlist",
        [
          Alcotest.test_case "round trip" `Quick test_allowlist_round_trip;
          Alcotest.test_case "suppression" `Quick test_allowlist_suppresses;
        ] );
    ]
