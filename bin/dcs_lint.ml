(* dcs_lint — the repo's self-hosted static analyzer (see HACKING, "Static
   analysis").  Typedtree passes over dune's .cmt files (alias/open/functor-
   proof); a scanned file without a readable .cmt is itself an error.  Exits
   1 on errors, 3 on warnings under --strict. *)

open Cmdliner

let paths_arg =
  let doc = "Files or directories to lint (default: lib bin bench)." in
  Arg.(value & pos_all string [ "lib"; "bin"; "bench" ] & info [] ~docv:"PATH" ~doc)

let json_arg =
  let doc = "Emit the machine-readable JSON report instead of the table." in
  Arg.(value & flag & info [ "json" ] ~doc)

let allow_arg =
  let doc =
    "Allowlist file (one '<pass-id> <path-suffix> [message substring]' per line). When \
     omitted, ./lint.allow is used if present."
  in
  Arg.(value & opt (some string) None & info [ "allow" ] ~docv:"FILE" ~doc)

let list_passes_arg =
  let doc = "List the registered passes and exit." in
  Arg.(value & flag & info [ "list-passes" ] ~doc)

let strict_arg =
  let doc =
    "Treat warnings as fatal: exit 3 when only Warning-severity findings remain. CI runs \
     with this flag."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

(* One row per pass, sorted by id; CI checks the id set. *)
let list_passes () =
  List.iter
    (fun (p : Lint_typed.pass) -> Printf.printf "%-15s %s\n    %s\n" p.id p.title p.doc)
    (List.sort (fun (a : Lint_typed.pass) b -> String.compare a.id b.id) Lint_typed.all);
  0

let load_allow = function
  | Some path -> (
      match Lint_allow.load path with
      | Ok allow -> Ok allow
      | Error msg -> Error (path ^ ": " ^ msg))
  | None ->
      if Sys.file_exists "lint.allow" then
        match Lint_allow.load "lint.allow" with
        | Ok allow -> Ok allow
        | Error msg -> Error ("lint.allow: " ^ msg)
      else Ok Lint_allow.empty

let main paths json allow_path list_passes_flag strict =
  if list_passes_flag then list_passes ()
  else
    match load_allow allow_path with
    | Error msg ->
        prerr_endline ("dcs_lint: " ^ msg);
        2
    | Ok allow ->
        let result = Lint_driver.run ~allow ~roots:paths () in
        print_string (if json then Lint_driver.to_json result else Lint_driver.to_table result);
        Lint_driver.exit_code ~strict result

let cmd =
  let doc = "enforce the repo's kernel, parallelism and error-handling invariants" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Static analysis over the project's own OCaml sources.  The passes load the \
         .cmt files dune emits and check resolved paths and inferred types, so banned \
         APIs (failwith, stray printing, raw CSR builds), unsafe accesses, polymorphic \
         compares on graph types, mutable state escaping into parallel code and \
         discarded audit results are caught through module aliases, opens and \
         functors.  A file that parses but has no readable .cmt is reported as an error \
         under the cmt pseudo-pass (build it first: dune build @check).  Exit status is \
         0 when clean, 1 when error findings remain after the allowlist, 3 when only \
         warnings remain and $(b,--strict) was given.";
    ]
  in
  Cmd.v
    (Cmd.info "dcs_lint" ~version:"2.0.0" ~doc ~man)
    Term.(
      const main $ paths_arg $ json_arg $ allow_arg $ list_passes_arg $ strict_arg)

let () = exit (Cmd.eval' cmd)
