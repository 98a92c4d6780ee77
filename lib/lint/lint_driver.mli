(** Orchestration: walk the requested roots, parse every [.ml], run the
    {!Lint_typed} pass catalogue on its [.cmt], apply the allowlist, render.

    Every scanned [.ml] either gets every pass or exactly one error finding
    that says why it could not: ["parse"] when it does not parse, ["cmt"]
    when it parses but has no readable [.cmt] in the {!Lint_cmt} index, or
    a pass raised on its typedtree.  A missing root is a ["parse"] finding
    too, so one bad file cannot hide the rest of the report. *)

type result = {
  findings : Lint_finding.t list;  (** non-suppressed, sorted *)
  files_scanned : int;
  typed_files : int;  (** how many of those every pass checked *)
  suppressed : int;
}

val run : ?allow:Lint_allow.t -> roots:string list -> unit -> result

val to_json : result -> string

val to_table : result -> string
(** Findings table plus a one-line summary. *)

val exit_code : ?strict:bool -> result -> int
(** [0] clean (or warnings only without [strict]), [1] any error finding,
    [3] warnings only under [strict]. *)
