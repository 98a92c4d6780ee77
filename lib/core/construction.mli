(** The first-class construction registry.

    Every spanner construction the system knows is one {!t} record here:
    canonical name, CLI aliases, paper reference, premise requirement,
    guarantee metadata and the build entry point.  Consumer layers derive
    their behavior from the registry instead of hand-maintaining per-variant
    lists — the CLI parses [--algorithm], validates premises and renders the
    [list] subcommand from it; the bench harness sweeps registry-driven
    construction lists; {!Experiment} reads the edge-count normalization
    exponent from the metadata.  Adding a construction is a one-record diff
    (see HACKING.md, "Adding a construction"). *)

type t = {
  name : string;  (** canonical CLI name, unique across the registry *)
  aliases : string list;  (** accepted alternative spellings, also unique *)
  reference : string;  (** Table 1 row / theorem / section of the paper *)
  premise : Premise.requirement;  (** what the guarantee assumes of the input *)
  guarantee : string;  (** display form of the (distance, congestion) guarantee *)
  alpha : float option;
      (** numeric target distance stretch when it is a constant
          ([None] for the [O(log n)]-stretch sparsifiers) *)
  edge_exponent : float;
      (** expected [e] with [m(H) = O(n^e)] — the normalization exponent for
          {!Experiment.edges_norm} *)
  params : (string * string) list;  (** tunable parameters baked into the entry *)
  build : Prng.t -> Graph.t -> Dc.t;
      (** construct the spanner and its router; deterministic given the
          generator state.  The {!Dc.t} reports under the construction's
          label ([algorithm1], [greedy-3], [spectral[16]], ...) *)
}

val all : t list
(** Every registered construction, in display order (Table 1 order first,
    then baselines and the Section 8 exploratory variants). *)

val names : string list
(** Canonical names, in registry order. *)

val all_names : string list
(** Canonical names and aliases (the strings {!find} accepts). *)

val expected : string
(** ["theorem2 | bounded-degree | ..."] — canonical names joined for docs. *)

val find : string -> (t, string) result
(** Case-insensitive lookup by name or alias.  The error message lists every
    accepted name and alias (generated, never hand-maintained). *)

val find_exn : string -> t
(** {!find}, raising [Invalid_argument] on unknown names (registry-driven
    callers with literal names, e.g. the bench harness). *)

val build : t -> Prng.t -> Graph.t -> Dc.t
(** Build the construction ([c.build]). *)

val premise_ok : t -> Premise.t -> bool
(** Whether a measured premise satisfies this construction's requirement. *)

val premise_warnings : t -> Graph.t -> string list
(** Measure the graph against the construction's requirement; empty when the
    premise holds (or the construction assumes nothing).  Runs the Lanczos
    estimator for non-[Any] requirements. *)

val accepting : Premise.t -> t list
(** The registry filtered to constructions whose premise accepts the measured
    graph — the bench sweeps use this instead of hardcoded lists. *)

val params_text : t -> string
(** ["k=2"]-style rendering of the tunables, ["-"] when there are none. *)

val to_json : unit -> string
(** The whole registry as a JSON document (the [list --json] payload). *)
