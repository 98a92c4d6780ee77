type result = {
  findings : Lint_finding.t list;
  files_scanned : int;
  typed_files : int;
  suppressed : int;
}

(* Deterministic walk: sorted entries, skip dot-entries and build dirs, so
   the findings order (and thus the JSON artifact) is stable across runs. *)
let rec walk path acc =
  if Sys.is_directory path then
    Array.to_list (Sys.readdir path)
    |> List.sort compare
    |> List.fold_left
         (fun acc entry ->
           if String.length entry = 0 || entry.[0] = '.' || entry = "_build" then acc
           else walk (Filename.concat path entry) acc)
         acc
  else path :: acc

let collect roots =
  let all =
    List.fold_left
      (fun acc root -> if Sys.file_exists root then walk root acc else acc)
      [] roots
  in
  List.sort compare all

let ml_files files =
  List.filter (fun p -> Filename.check_suffix p ".ml") files

(* Why a parsed file has no typed unit: the message names the unreadable
   .cmt when discovery found one for this module ("csr.cmt", or dune's
   "dune__exe__Dcs_cli.cmt" for an executable's). *)
let no_cmt (index : Lint_cmt.index) path =
  let stem = String.lowercase_ascii (Filename.remove_extension (Filename.basename path)) in
  let same_unit (cmt, _) =
    let base = String.lowercase_ascii (Filename.remove_extension (Filename.basename cmt)) in
    base = stem || String.ends_with ~suffix:("__" ^ stem) base
  in
  match List.find_opt same_unit index.Lint_cmt.errors with
  | Some (cmt, reason) -> Printf.sprintf "cannot read %s: %s" cmt reason
  | None -> "no .cmt file, so no pass can check this file (build it: dune build @check)"

let run ?(allow = Lint_allow.empty) ~roots () =
  let missing =
    List.filter_map
      (fun root ->
        if Sys.file_exists root then None
        else
          Some
            (Lint_finding.make ~pass:"parse" ~file:root ~line:1 ~col:0
               ~severity:Lint_finding.Error "no such file or directory"))
      roots
  in
  let files = collect roots in
  let file_set = Hashtbl.create 256 in
  List.iter (fun f -> Hashtbl.replace file_set f ()) files;
  let parse_failures = ref [] in
  let sources =
    List.filter_map
      (fun path ->
        match Lint_source.load path with
        | Ok src -> Some src
        | Error msg ->
            parse_failures :=
              Lint_finding.make ~pass:"parse" ~file:path ~line:1 ~col:0
                ~severity:Lint_finding.Error msg
              :: !parse_failures;
            None)
      (ml_files files)
  in
  let index = Lint_cmt.load_index ~roots in
  let parallel_reachable = Lint_typed.parallel_closure index.Lint_cmt.units in
  let typed_count = ref 0 in
  (* Each parsed file is either checked by every pass or becomes exactly one
     "cmt" error: no .cmt, an unreadable one, or a pass that raised on it. *)
  let lint_source src =
    let path = src.Lint_source.path in
    let error pass ~line msg =
      [ Lint_finding.make ~pass ~file:path ~line ~col:0 ~severity:Lint_finding.Error msg ]
    in
    match (Lint_source.ast src, Lint_cmt.find index path) with
    | Error (msg, line), _ -> error "parse" ~line msg
    | Ok _, None -> error "cmt" ~line:1 (no_cmt index path)
    | Ok _, Some unit ->
        let ctx =
          { Lint_typed.source = src; file_exists = Hashtbl.mem file_set; parallel_reachable }
        in
        let rec check acc = function
          | [] ->
              incr typed_count;
              List.concat (List.rev acc)
          | (p : Lint_typed.pass) :: rest -> (
              match p.Lint_typed.check ctx unit with
              | findings -> check (findings :: acc) rest
              | exception exn ->
                  error "cmt" ~line:1
                    (Printf.sprintf "pass %s raised %s" p.Lint_typed.id
                       (Printexc.to_string exn)))
        in
        check [] Lint_typed.all
  in
  let findings =
    List.concat_map lint_source sources @ !parse_failures @ missing
  in
  let kept, dropped = List.partition (fun f -> not (Lint_allow.matches allow f)) findings in
  {
    findings = Lint_finding.sort kept;
    files_scanned = List.length sources;
    typed_files = !typed_count;
    suppressed = List.length dropped;
  }

let to_json r =
  Lint_finding.report_json ~files_scanned:r.files_scanned ~typed:r.typed_files
    ~suppressed:r.suppressed r.findings

let to_table r =
  let summary =
    Printf.sprintf
      "%d file(s) scanned (%d typed), %d finding(s), %d suppressed by allowlist\n"
      r.files_scanned r.typed_files (List.length r.findings) r.suppressed
  in
  Lint_finding.table r.findings ^ summary

(* Warnings gate the build only under --strict (exit 3), so heuristic
   passes can land without instantly breaking @lint — CI runs strict, which
   is what keeps them from accumulating. *)
let exit_code ?(strict = false) r =
  if List.exists (fun f -> f.Lint_finding.severity = Lint_finding.Error) r.findings then 1
  else if r.findings <> [] && strict then 3
  else 0
