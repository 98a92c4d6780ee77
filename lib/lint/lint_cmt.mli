(** The passes' input: compiled [.cmt] units plus the environment plumbing
    that makes [Path.t] resolution and type expansion work outside the
    compiler.

    A {!t} is one compilation unit's typedtree.  {!load_index} discovers
    units under the scan roots (descending into dune's [.*.objs] object
    directories, and trying each root under [_build/default] as well),
    initializes the compiler load path from the recorded — and remapped —
    [cmt_loadpath]s, and resets the [Env]/[Envaux] caches so units from a
    previous index (say, a test fixture's stub [Csr]) cannot leak into this
    one.  Because the load path and those caches are global compiler state,
    passes over an index must finish before the next index is loaded. *)

type t = {
  src : string;  (** [cmt_sourcefile]: the path the compiler recorded *)
  cmt_path : string;
  modname : string;  (** compilation unit name, e.g. ["Csr"] *)
  structure : Typedtree.structure;
  imports : string list;
      (** compilation units this one depends on ([cmt_imports]) *)
}

type index = {
  units : t list;
  errors : (string * string) list;  (** unreadable cmt files: path, reason *)
}

val discover : roots:string list -> string list
(** All [.cmt] paths under the roots (and their [_build/default] twins). *)

val load_index : roots:string list -> index

val find : index -> string -> t option
(** The unit whose recorded source file suffix-matches the scanned path. *)

val expr_env : Typedtree.expression -> Env.t
(** The expression's environment, reconstructed from its summary. *)

val normalize_path : Env.t -> Path.t -> Path.t
(** Resolve the module part through module aliases ([module C = Csr]). *)

val canonical : Env.t -> Path.t -> string
(** [normalize_path] rendered with the [Stdlib.] / [Stdlib__X] prefixes
    stripped: [A.unsafe_get] under [module A = Array], [unsafe_get] under
    [open Array] and [Stdlib.Array.unsafe_get] all give
    ["Array.unsafe_get"]. *)

val is_qualified : Path.t -> bool
(** [Pdot]?  Locally-bound plain identifiers (e.g. a shadowed [compare])
    are [Pident] and must not match Stdlib-rule names. *)

val type_mentions : Env.t -> matches:(string -> bool) -> Types.type_expr -> bool
(** Does the type, expanding abbreviations at every level, mention an
    accepted constructor?  Enters tuples and constructor parameters
    ([Graph.t list]); does not enter arrows (a function returning state is
    a factory, not state). *)

val type_head : Env.t -> Types.type_expr -> string option
(** Canonical name of the type's head constructor after expansion, if the
    expanded type is a constructor at all. *)

val type_is_unit : Env.t -> Types.type_expr -> bool

val type_is_arrow : Env.t -> Types.type_expr -> bool
