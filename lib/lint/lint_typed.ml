(* The pass catalogue: the repo's rules stated over the typedtree, where
   identifiers are resolved Path.ts and expressions carry inferred types.
   That is what makes them alias-, open- and functor-proof: [C.to_csr]
   under [module C = Graph], [to_csr] under [open Graph] and a shadowing-free
   [compare] all reduce to the same canonical identity here, while a local
   [let compare = ...] (a Pident, not a Pdot) correctly stops matching the
   Stdlib rule. *)

open Typedtree

type ctx = {
  source : Lint_source.t;
      (* the matching source file: scope rules key on its path, and the
         SAFETY:/DOMAIN-SAFE: markers live in comments only the raw text
         retains *)
  file_exists : string -> bool;
      (* membership in the scanned file set (used for .mli coverage) *)
  parallel_reachable : string -> bool;
      (* by compilation-unit name, from the cmt_imports closure *)
}

type pass = {
  id : string;
  title : string;
  doc : string;
  check : ctx -> Lint_cmt.t -> Lint_finding.t list;
}

(* ---- scope ---- *)

let segments path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".")

(* [dirs] as a contiguous run of the path's directory segments: ["lib"]
   matches "lib/graph/csr.ml" and "../lib/graph/csr.ml" but not "bin/x.ml". *)
let under ~dirs path =
  let rec is_prefix p s =
    match (p, s) with
    | [], _ -> true
    | _, [] -> false
    | x :: p', y :: s' -> String.equal x y && is_prefix p' s'
  in
  let rec anywhere s =
    match s with [] -> false | _ :: tl -> is_prefix dirs s || anywhere tl
  in
  match List.rev (segments path) with
  | [] -> false
  | _basename :: rev_dirs -> anywhere (List.rev rev_dirs)

let in_lib path = under ~dirs:[ "lib" ] path

let is_file pattern path = Lint_allow.path_matches ~pattern path

let raise_exempt path = is_file "lib/util/io_error.ml" path

let print_exempt path = is_file "lib/util/report.ml" path || under ~dirs:[ "lib"; "obs" ] path

let csr_exempt path = under ~dirs:[ "lib"; "graph" ] path

(* The only files allowed to contain unsafe_* accesses. *)
let kernel_allowlist =
  [
    "lib/graph/bfs_batch.ml";
    "lib/graph/bitmat.ml";
    "lib/graph/csr.ml";
    "lib/graph/dijkstra.ml";
  ]

(* "Graph: node out of range" / "Bfs_batch.run: source out of range" both
   carry a capitalized context token containing '.' or ':' before the first
   space — the convention banned-api enforces on messages. *)
let has_context_prefix s =
  String.length s > 0
  && s.[0] >= 'A'
  && s.[0] <= 'Z'
  &&
  let stop = match String.index_opt s ' ' with Some i -> i | None -> String.length s in
  let rec go i = i < stop && (s.[i] = '.' || s.[i] = ':' || go (i + 1)) in
  go 0

(* ---- shared helpers ---- *)

let loc_line_col (loc : Location.t) =
  (loc.loc_start.Lexing.pos_lnum, loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol)

let finding ?resolved_path ~pass ~severity (src : Lint_source.t) (loc : Location.t) msg =
  let line, col = loc_line_col loc in
  Lint_finding.make ?resolved_path ~pass ~file:src.Lint_source.path ~line ~col ~severity msg

(* Run [f] on every expression of the unit's typedtree. *)
let on_exprs (unit : Lint_cmt.t) f =
  let out = ref [] in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match f e with [] -> () | fs -> out := fs @ !out);
          Tast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it unit.Lint_cmt.structure;
  List.rev !out

let resolved_ident e =
  match e.exp_desc with
  | Texp_ident (p, _, _) when Lint_cmt.is_qualified p ->
      Some (Lint_cmt.canonical (Lint_cmt.expr_env e) p)
  | _ -> None

let string_literal e =
  match e.exp_desc with
  | Texp_constant (Asttypes.Const_string (s, _, _)) -> Some s
  | _ -> None

(* ---- banned-api ---- *)

let banned_prints =
  [
    "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
    "print_endline"; "print_string"; "print_newline"; "print_int"; "print_char";
    "print_float"; "print_bytes"; "prerr_endline"; "prerr_string"; "prerr_newline";
    "prerr_bytes";
  ]

let is_exn env ty = Lint_cmt.type_head env ty = Some "exn"

let check_banned_api ctx unit =
  let path = ctx.source.Lint_source.path in
  if not (in_lib path) then []
  else
    on_exprs unit (fun e ->
        let err ?resolved_path msg =
          [ finding ?resolved_path ~pass:"banned-api" ~severity:Lint_finding.Error
              ctx.source e.exp_loc msg ]
        in
        let check_message_arg name arg =
          match string_literal arg with
          | Some s when not (has_context_prefix s) ->
              err
                (Printf.sprintf
                   "%s message %S lacks a Module.fn/Module: context prefix" name s)
          | _ -> []
        in
        match e.exp_desc with
        | Texp_ident _ -> (
            match resolved_ident e with
            | Some "failwith" when not (raise_exempt path) ->
                err ~resolved_path:"Stdlib.failwith"
                  "failwith in lib/ (raise a typed error: Io_error.raise_error or \
                   invalid_arg with a Module.fn prefix)"
            | Some name when List.mem name banned_prints
                             && not (print_exempt path) ->
                err ~resolved_path:name
                  (Printf.sprintf "%s in lib/ (route output through Report or Dcs_obs)" name)
            | Some ("Graph.to_csr" as name) when not (csr_exempt path) ->
                err ~resolved_path:name
                  "Graph.to_csr outside lib/graph (use the version-cached Graph.snapshot)"
            | _ -> [])
        | Texp_apply (fn, (_, Some arg) :: _) when not (raise_exempt path) -> (
            match resolved_ident fn with
            | Some "invalid_arg" -> check_message_arg "invalid_arg" arg
            | _ -> [])
        | Texp_construct (_, cd, [ arg ]) when not (raise_exempt path) -> (
            match cd.Types.cstr_name with
            | "Failure" when is_exn (Lint_cmt.expr_env e) e.exp_type ->
                err "Failure constructor in lib/ (raise a typed error instead)"
            | "Invalid_argument" when is_exn (Lint_cmt.expr_env e) e.exp_type ->
                check_message_arg "Invalid_argument" arg
            | _ -> [])
        | _ -> [])

(* ---- unsafe-audit ---- *)

let unsafe_resolved name =
  match String.rindex_opt name '.' with
  | None -> false
  | Some i ->
      let m = String.sub name 0 i in
      let f = String.sub name (i + 1) (String.length name - i - 1) in
      String.starts_with ~prefix:"unsafe_" f
      && (List.mem m [ "Array"; "Bytes"; "String" ] || String.starts_with ~prefix:"Bigarray" m)

let check_unsafe_audit ctx unit =
  let path = ctx.source.Lint_source.path in
  let allowed = List.exists (fun k -> is_file k path) kernel_allowlist in
  on_exprs unit (fun e ->
      match resolved_ident e with
      | Some name when unsafe_resolved name ->
          let line, _ = loc_line_col e.exp_loc in
          if not allowed then
            [
              finding ~resolved_path:name ~pass:"unsafe-audit"
                ~severity:Lint_finding.Error ctx.source e.exp_loc
                (Printf.sprintf "%s outside the allowlisted kernel set (%s)" name
                   (String.concat ", "
                      (List.map Filename.basename kernel_allowlist)));
            ]
          else if
            not (Lint_source.has_marker_above ctx.source ~marker:"SAFETY:" ~line)
          then
            [
              finding ~resolved_path:name ~pass:"unsafe-audit"
                ~severity:Lint_finding.Error ctx.source e.exp_loc
                (Printf.sprintf
                   "%s without a (* SAFETY: ... *) comment within %d lines above" name
                   Lint_source.marker_window);
            ]
          else []
      | _ -> [])

(* ---- poly-compare ---- *)

let poly_compare_ops = [ "="; "<>"; "compare"; "min"; "max" ]

(* The graph representations whose structural comparison is banned: deep
   compare walks the whole CSR and ignores the version counter.  Inside
   graph.ml / csr.ml the same types appear under their local name [t]. *)
let graph_type modname name =
  List.mem name [ "Graph.t"; "Csr.t"; "Graph.csr" ]
  || (name = "t" && List.mem modname [ "Graph"; "Csr" ])

let check_poly_compare ctx (unit : Lint_cmt.t) =
  on_exprs unit (fun e ->
      match e.exp_desc with
      | Texp_apply (fn, args) -> (
          match resolved_ident fn with
          | Some op when List.mem op poly_compare_ops ->
              let operands =
                List.filter_map (function _, Some a -> Some a | _ -> None) args
              in
              let hit = ref None in
              let matches name =
                graph_type unit.Lint_cmt.modname name
                && begin
                     if !hit = None then hit := Some name;
                     true
                   end
              in
              let offending =
                List.exists
                  (fun a -> Lint_cmt.type_mentions (Lint_cmt.expr_env a) ~matches a.exp_type)
                  operands
              in
              if offending then
                let tyname = Option.value ~default:"Graph.t" !hit in
                [
                  finding ~resolved_path:tyname ~pass:"poly-compare"
                    ~severity:Lint_finding.Error ctx.source e.exp_loc
                    (Printf.sprintf
                       "polymorphic %s on a value whose inferred type involves %s (deep \
                        compare on version-counted graphs; compare node/edge counts or \
                        use == identity)"
                       op tyname);
                ]
              else []
          | _ -> [])
      | _ -> [])

(* ---- mutable-escape ---- *)

let mutable_types =
  [
    "ref"; "array"; "bytes"; "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t";
    "Bigarray.Array1.t"; "Bigarray.Array2.t";
  ]
(* Atomic.t and Mutex.t are deliberately absent: they ARE the sanctioned
   cross-domain disciplines, flagging them would punish the fix. *)

let rec pattern_var : pattern -> string option =
 fun p ->
  match p.pat_desc with
  | Tpat_var (_, name) -> Some name.Asttypes.txt
  | Tpat_alias (_, _, name) -> Some name.Asttypes.txt
  | Tpat_tuple ps -> List.find_map pattern_var ps
  | _ -> None

(* Top-level bindings, descending into nested module structures: state in a
   submodule is just as reachable from another domain. *)
let rec toplevel_bindings_of_items items acc =
  List.fold_left
    (fun acc item ->
      match item.str_desc with
      | Tstr_value (_, vbs) -> List.rev_append vbs acc
      | Tstr_module mb -> toplevel_bindings_of_module mb.mb_expr acc
      | Tstr_recmodule mbs ->
          List.fold_left (fun acc mb -> toplevel_bindings_of_module mb.mb_expr acc) acc mbs
      | Tstr_include i -> toplevel_bindings_of_module i.incl_mod acc
      | _ -> acc)
    acc items

and toplevel_bindings_of_module me acc =
  match me.mod_desc with
  | Tmod_structure s -> toplevel_bindings_of_items s.str_items acc
  | Tmod_constraint (me, _, _, _) -> toplevel_bindings_of_module me acc
  | _ -> acc

(* A record with a mutable field is state the way a ref is: look the
   expanded head type up in the binding's environment.  An arrow-typed
   binding (let mk () = { x = 0 }) expands to no record and stays clean. *)
let mutable_record env ty =
  match Types.get_desc (Ctype.expand_head env ty) with
  | Types.Tconstr (p, _, _) -> (
      match (Env.find_type p env).Types.type_kind with
      | Types.Type_record (labels, _)
        when List.exists (fun l -> l.Types.ld_mutable = Asttypes.Mutable) labels ->
          Some (Lint_cmt.canonical env p)
      | _ -> None
      | exception Not_found -> None)
  | _ -> None
  | exception _ -> None

let check_mutable_escape ctx (unit : Lint_cmt.t) =
  let path = ctx.source.Lint_source.path in
  if not (in_lib path) then []
  else if not (ctx.parallel_reachable unit.Lint_cmt.modname) then []
  else
    let bindings = List.rev (toplevel_bindings_of_items unit.Lint_cmt.structure.str_items []) in
    List.concat_map
      (fun vb ->
        let env = Lint_cmt.expr_env vb.vb_expr in
        let ty = vb.vb_pat.pat_type in
        let hit = ref None in
        let matches name =
          List.mem name mutable_types
          && begin
               if !hit = None then hit := Some name;
               true
             end
        in
        let state =
          if Lint_cmt.type_mentions env ~matches ty then
            Option.map (fun t -> (t, "inferred type involves " ^ t)) !hit
          else
            Option.map
              (fun t -> (t, Printf.sprintf "inferred type %s has a mutable field" t))
              (mutable_record env ty)
        in
        match state with
        | None -> []
        | Some (tyname, why) ->
            let line, _ = loc_line_col vb.vb_loc in
            if Lint_source.has_marker_above ctx.source ~marker:"DOMAIN-SAFE:" ~line then []
            else
              let name = Option.value ~default:"_" (pattern_var vb.vb_pat) in
              [
                finding ~resolved_path:tyname ~pass:"mutable-escape"
                  ~severity:Lint_finding.Warning ctx.source vb.vb_loc
                  (Printf.sprintf
                     "top-level mutable state: %s's %s in a module reachable from \
                      Parallel/Domain call graphs; annotate (* DOMAIN-SAFE: why *) or \
                      refactor"
                     name why);
              ])
      bindings

(* ---- ignored-result ---- *)

(* Functions whose result encodes a verdict the caller must act on:
   discarding it via ignore/let _ silently drops a certification or
   comparison outcome. *)
let must_use name =
  name = "Stretch.violations"
  || String.starts_with ~prefix:"Repair." name
  || String.starts_with ~prefix:"Bench_report.compare_" name

let flagged_application e =
  match e.exp_desc with
  | Texp_apply (fn, _) -> (
      match resolved_ident fn with
      | Some name when must_use name ->
          let env = Lint_cmt.expr_env e in
          if Lint_cmt.type_is_unit env e.exp_type || Lint_cmt.type_is_arrow env e.exp_type
          then None
          else Some name
      | _ -> None)
  | _ -> None

let check_ignored_result ctx (unit : Lint_cmt.t) =
  let out = ref [] in
  let flag loc name how =
    out :=
      finding ~resolved_path:name ~pass:"ignored-result" ~severity:Lint_finding.Error
        ctx.source loc
        (Printf.sprintf "result of %s discarded via %s (act on the verdict or bind it)"
           name how)
      :: !out
  in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_apply (fn, [ (_, Some a) ]) when resolved_ident fn = Some "ignore" -> (
              match flagged_application a with
              | Some name -> flag e.exp_loc name "ignore"
              | None -> ())
          | _ -> ());
          Tast_iterator.default_iterator.expr it e);
      value_binding =
        (fun it vb ->
          (match vb.vb_pat.pat_desc with
          | Tpat_any -> (
              match flagged_application vb.vb_expr with
              | Some name -> flag vb.vb_loc name "let _"
              | None -> ())
          | _ -> ());
          Tast_iterator.default_iterator.value_binding it vb);
    }
  in
  it.structure it unit.Lint_cmt.structure;
  List.rev !out

(* ---- iface-coverage ---- *)

let check_iface_coverage ctx (_ : Lint_cmt.t) =
  let path = ctx.source.Lint_source.path in
  if (not (in_lib path)) || ctx.file_exists (path ^ "i") then []
  else
    [
      Lint_finding.make ~pass:"iface-coverage" ~file:path ~line:1 ~col:0
        ~severity:Lint_finding.Error
        (Printf.sprintf "missing interface %si (every lib/ module ships a signature)"
           (Filename.basename path));
    ]

(* ---- registry ---- *)

let all =
  [
    {
      id = "banned-api";
      title = "banned API calls";
      doc =
        "failwith/Failure and unprefixed invalid_arg messages in lib/ (except \
         lib/util/io_error.ml); Printf.printf/print_*/prerr_* in lib/ (except Report and \
         Dcs_obs); Graph.to_csr outside lib/graph.  Matched on resolved \
         paths, so module aliases, opens and functor arguments cannot hide a call";
      check = check_banned_api;
    };
    {
      id = "unsafe-audit";
      title = "unsafe accesses confined and justified";
      doc =
        "Array/Bytes/String/Bigarray unsafe_* only in bfs_batch.ml, bitmat.ml, \
         csr.ml, dijkstra.ml, and every site preceded by a (* SAFETY: ... *) \
         comment; matched by resolved module, so module A = Array cannot hide one and a \
         local safe wrapper named unsafe_* does not match";
      check = check_unsafe_audit;
    };
    {
      id = "poly-compare";
      title = "no polymorphic compare on graphs";
      doc =
        "=, <>, compare, min, max whose operand's inferred type involves \
         Graph.t/Csr.t, through type aliases and inside containers \
         (Graph.t list, tuples); locally shadowed operators do not match";
      check = check_poly_compare;
    };
    {
      id = "mutable-escape";
      title = "parallelism hygiene";
      doc =
        "top-level bindings whose inferred type involves ref/array/bytes/Hashtbl.t/\
         Buffer.t/Queue.t/Stack.t/Bigarray.Array1.t, or is a record with a mutable \
         field, in modules reachable (by cmt_imports closure) from Parallel/Domain \
         users, unless (* DOMAIN-SAFE: *) annotated";
      check = check_mutable_escape;
    };
    {
      id = "ignored-result";
      title = "must-use results not discarded";
      doc =
        "non-unit results of Stretch.violations, Repair.*, Bench_report.compare_* \
         discarded via ignore or let _ — dropping a certification verdict on the floor";
      check = check_ignored_result;
    };
    {
      id = "iface-coverage";
      title = "interface coverage";
      doc = "every lib/**/*.ml has a matching .mli";
      check = check_iface_coverage;
    };
  ]

(* A unit is audited when it transitively appears in the cmt_imports of a
   unit that imports Parallel (the repo's domain pool) or Stdlib's Domain
   directly.  Imports over-approximate calls (types count), which errs on
   the side of auditing more modules. *)
let parallel_closure (units : Lint_cmt.t list) =
  let unit_names = Hashtbl.create 64 in
  List.iter (fun (u : Lint_cmt.t) -> Hashtbl.replace unit_names u.Lint_cmt.modname u) units;
  let triggers u =
    List.exists
      (fun i -> i = "Parallel" || i = "Domain" || i = "Stdlib__Domain")
      u.Lint_cmt.imports
    || u.Lint_cmt.modname = "Parallel"
  in
  let reachable = Hashtbl.create 64 in
  let rec visit name =
    if not (Hashtbl.mem reachable name) then begin
      Hashtbl.replace reachable name ();
      match Hashtbl.find_opt unit_names name with
      | Some u ->
          List.iter
            (fun i -> if Hashtbl.mem unit_names i then visit i)
            u.Lint_cmt.imports
      | None -> ()
    end
  in
  List.iter (fun u -> if triggers u then visit u.Lint_cmt.modname) units;
  fun name -> Hashtbl.mem reachable name
