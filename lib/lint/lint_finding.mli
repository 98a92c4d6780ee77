(** Lint findings: location-tagged rule violations plus their renderings.

    A finding identifies the pass that produced it, the offending source
    location and a human-readable message.  [Error] findings are hard
    violations of a repo invariant; [Warning] marks heuristic passes (e.g.
    the parallelism-hygiene auditor) whose findings signal "audit me"
    rather than "definitely wrong" — they fail the build only under
    [--strict].  Findings on a resolved identifier additionally carry it
    ([resolved_path]), so the JSON report shows what an alias or open
    actually referred to. *)

type severity = Error | Warning

type t = {
  pass : string;  (** pass id, e.g. ["banned-api"] *)
  file : string;  (** path as scanned (relative to the lint invocation) *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, as in compiler locations *)
  severity : severity;
  msg : string;
  resolved_path : string option;
      (** typed passes only: the canonical resolved identity behind the
          flagged source text, e.g. ["Graph.to_csr"] for [C.to_csr] under
          [module C = Graph] *)
}

val make :
  ?resolved_path:string ->
  pass:string -> file:string -> line:int -> col:int -> severity:severity -> string -> t

val severity_name : severity -> string

val sort : t list -> t list
(** Stable order: file, then line, then column, then pass. *)

val json_escape : string -> string

val to_json : t -> string
(** One finding as a JSON object ([resolved_path] key present iff typed). *)

val report_json : files_scanned:int -> typed:int -> suppressed:int -> t list -> string
(** Full machine-readable report, schema [dcs-lint/2]:
    [{"schema":...,"findings":[...],"summary":{...}}]. *)

val table : t list -> string
(** Aligned human-readable table (or ["no findings\n"]). *)
