(** The pass catalogue: the repo's rules stated over the typedtree
    ({!Lint_cmt}), where identifiers are resolved [Path.t]s and expressions
    carry inferred types.

    This is what makes the rules alias-, open- and functor-proof:
    [C.to_csr] under [module C = Graph], [to_csr] under [open Graph] and
    [Stdlib.Array.unsafe_get] under [module A = Array] all reduce to the
    same canonical identity, while a locally shadowed [compare] (a [Pident],
    not a [Pdot]) correctly stops matching the Stdlib rule.  Findings carry
    the resolved identity in {!Lint_finding.t.resolved_path}.

    Six passes: [banned-api], [unsafe-audit], [poly-compare],
    [mutable-escape] (inferred mutable types in [Parallel]/[Domain]-reachable
    modules, by [cmt_imports] closure), [ignored-result] (non-unit verdicts
    of flagged functions discarded via [ignore]/[let _]) and
    [iface-coverage] (every [lib/] module has an [.mli]). *)

type ctx = {
  source : Lint_source.t;
      (** the matching source file: scope rules key on its path, and the
          [SAFETY:]/[DOMAIN-SAFE:] markers live in comments only the raw
          text retains *)
  file_exists : string -> bool;
      (** membership in the scanned file set (used for [.mli] coverage) *)
  parallel_reachable : string -> bool;
      (** by compilation-unit name, from the [cmt_imports] closure *)
}

type pass = {
  id : string;
  title : string;
  doc : string;
  check : ctx -> Lint_cmt.t -> Lint_finding.t list;
}

val all : pass list
(** banned-api, unsafe-audit, poly-compare, mutable-escape, ignored-result,
    iface-coverage. *)

val parallel_closure : Lint_cmt.t list -> string -> bool
(** A unit is audited when it transitively appears in the [cmt_imports] of
    a unit importing [Parallel] or [Domain]. *)
