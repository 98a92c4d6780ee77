(* The passes' input: .cmt units produced by the compiler under -bin-annot
   (dune emits them for every module it types).  A unit bundles the
   typedtree with enough environment plumbing — load path, Envaux summary
   reconstruction — that passes can resolve Path.ts and expand types, which
   is what makes the passes alias-, open- and functor-proof. *)

type t = {
  src : string;  (* cmt_sourcefile as recorded by the compiler *)
  cmt_path : string;
  modname : string;
  structure : Typedtree.structure;
  imports : string list;
}

type index = {
  units : t list;
  errors : (string * string) list;
}

(* ---- discovery ---- *)

(* Unlike the source walk (Lint_driver.collect), this one descends into
   dot-directories: dune hides object files in lib/<d>/.<lib>.objs/byte. *)
let rec walk_cmts path acc =
  match Sys.is_directory path with
  | true ->
      Array.fold_left
        (fun acc entry ->
          if entry = "" then acc else walk_cmts (Filename.concat path entry) acc)
        acc
        (let es = Sys.readdir path in
         Array.sort compare es;
         es)
  | false -> if Filename.check_suffix path ".cmt" then path :: acc else acc
  | exception Sys_error _ -> acc

(* Each scan root is tried as given and under _build/default, so the same
   invocation works from the dune @lint rule (cwd = _build/default, cmts in
   place), from the repo root (cmts under _build/default/<root>) and from
   the test tree (roots like ../lib already point into _build). *)
let candidate_roots roots =
  List.concat_map
    (fun r -> [ r; Filename.concat (Filename.concat "_build" "default") r ])
    roots
  |> List.filter (fun r -> Sys.file_exists r)

let discover ~roots =
  List.fold_left (fun acc r -> walk_cmts r acc) [] (candidate_roots roots)
  |> List.sort_uniq compare

(* ---- loading ---- *)

let dir_exists d = (try Sys.is_directory d with Sys_error _ -> false)

(* cmt_loadpath entries are relative to the compiler's cwd at build time
   (_build/default for dune); remap them so cmi lookups also resolve from
   the repo root and from _build/default/test. *)
let remap_dir d =
  List.filter dir_exists
    [ d; Filename.concat (Filename.concat "_build" "default") d; Filename.concat ".." d ]

let load_index ~roots =
  let cmts = discover ~roots in
  let units = ref [] and errors = ref [] and dirs = ref [] in
  let add_dir d = if not (List.mem d !dirs) then dirs := d :: !dirs in
  List.iter
    (fun cmt_path ->
      match Cmt_format.read_cmt cmt_path with
      | exception exn -> errors := (cmt_path, Printexc.to_string exn) :: !errors
      | cmt -> (
          match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
          | Cmt_format.Implementation structure, Some src ->
              List.iter
                (fun d -> List.iter add_dir (remap_dir d))
                cmt.Cmt_format.cmt_loadpath;
              add_dir (Filename.dirname cmt_path);
              units :=
                {
                  src;
                  cmt_path;
                  modname = cmt.Cmt_format.cmt_modname;
                  structure;
                  imports = List.map fst cmt.Cmt_format.cmt_imports;
                }
                :: !units
          | _ -> ()))
    cmts;
  (* One global load path per index: Env/Envaux cache persistent structures
     keyed by module name, so stale entries from a previous index (e.g. a
     fixture's stub Csr vs the repo's) must be dropped before passes run. *)
  Load_path.init ~auto_include:Load_path.no_auto_include (List.rev !dirs);
  Env.reset_cache ();
  Envaux.reset_cache ();
  { units = List.rev !units; errors = List.rev !errors }

(* The scanned path and the recorded sourcefile rarely agree verbatim
   ("../lib/graph/csr.ml" vs "lib/graph/csr.ml"); match on whole-segment
   suffixes in either direction. *)
let find index scanned =
  List.find_opt
    (fun u ->
      Lint_allow.path_matches ~pattern:u.src scanned
      || Lint_allow.path_matches ~pattern:scanned u.src)
    index.units

(* ---- environment & path resolution ---- *)

(* cmt files store environments as summaries; reconstruct on demand.  Any
   failure (missing cmi, version skew) degrades to the raw env, which still
   answers local queries. *)
let expr_env (e : Typedtree.expression) =
  try Envaux.env_of_only_summary e.Typedtree.exp_env with _ -> e.Typedtree.exp_env

(* Resolve the module part of a value/type path through module aliases
   (module C = Csr), then render canonically: the Stdlib prefix and the
   Stdlib__X mangling both drop, so Stdlib.Array.unsafe_get, A.unsafe_get
   under module A = Array, and unsafe_get under open Array all render as
   "Array.unsafe_get". *)
let strip_stdlib name =
  match String.split_on_char '.' name with
  | "Stdlib" :: (_ :: _ as rest) -> String.concat "." rest
  | seg :: rest when String.length seg > 8 && String.sub seg 0 8 = "Stdlib__" ->
      String.concat "."
        (String.capitalize_ascii (String.sub seg 8 (String.length seg - 8)) :: rest)
  | _ -> name

let normalize_path env p =
  match p with
  | Path.Pdot (mp, last) -> (
      match Env.normalize_module_path None env mp with
      | mp' -> Path.Pdot (mp', last)
      | exception _ -> p)
  | _ -> p

let canonical env p = strip_stdlib (Path.name (normalize_path env p))

let is_qualified = function Path.Pdot _ -> true | _ -> false

(* ---- type inspection ---- *)

(* Does [ty], after expanding abbreviations at every level, mention a type
   constructor accepted by [matches]?  Aliases (type g = Graph.t) expand
   away; containers (Graph.t list, (int * Csr.t) array) are entered; arrow
   types are not — a function returning a Hashtbl.t is a factory, not
   state.  [matches] receives the canonical constructor name. *)
let type_mentions env ~matches ty =
  let seen = ref [] in
  let rec go ty =
    let ty = try Ctype.expand_head env ty with _ -> ty in
    let id = Types.get_id ty in
    if List.memq id !seen then false
    else begin
      seen := id :: !seen;
      match Types.get_desc ty with
      | Types.Tarrow _ -> false
      | Types.Tconstr (p, args, _) ->
          matches (canonical env p) || List.exists go args
      | Types.Ttuple tys -> List.exists go tys
      | Types.Tpoly (ty, _) -> go ty
      | Types.Tlink ty | Types.Tsubst (ty, _) -> go ty
      | _ -> false
    end
  in
  go ty

let type_head env ty =
  let ty = try Ctype.expand_head env ty with _ -> ty in
  match Types.get_desc ty with
  | Types.Tconstr (p, _, _) -> Some (canonical env p)
  | _ -> None

let type_is_unit env ty = type_head env ty = Some "unit"

let type_is_arrow env ty =
  let ty = try Ctype.expand_head env ty with _ -> ty in
  match Types.get_desc ty with Types.Tarrow _ -> true | _ -> false
