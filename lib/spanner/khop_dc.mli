(** Generalized [(2k−1)]-stretch DC-spanners — the paper's open problem.

    Section 8 asks whether {e increasing} the distance stretch beyond 3 buys
    sparser spanners with better congestion.  This module explores the
    natural generalization of Algorithm 1's sample-and-repair scheme:

    + sample every edge with probability [ρ = Δ^{-(k-1)/k}] (for [k = 2]
      this is Algorithm 1's [1/√Δ]; larger [k] keeps fewer edges — expected
      degree [Δ^{1/k}]);
    + reinsert every removed edge whose endpoints are farther than [2k−1]
      apart in the sampled graph (the repair rule, generalized from
      3-detours to [(2k−1)]-detours) — one
      {!Stretch.violations}[ g sampled ~bound:(2k−1)] sweep;
    + route a removed matching edge along a uniformly random shortest path
      ([≤ 2k−1] hops) of the spanner, spreading congestion across the
      detour DAG.

    The [ablations/khop] bench block sweeps [k] and reports the
    edges / distance stretch / congestion frontier.  This is an exploratory
    construction: it generalizes the repair rule but not the support census,
    so it carries no analytical congestion guarantee — measurements only. *)

type t = {
  spanner : Graph.t;
  sampled : Graph.t;  (** the sampled graph before repair *)
  k : int;  (** stretch parameter: target stretch [2k−1] *)
  rho : float;  (** sampling probability used *)
  reinserted : int;  (** edges put back by the distance-repair rule *)
}

val build : ?rho:float -> k:int -> Prng.t -> Graph.t -> t
(** Build the [(2k−1)]-stretch spanner.  Requires [k ≥ 1]; [k = 1] returns
    [G] itself.  [rho] overrides the default [Δ^{-(k-1)/k}]. *)

val to_dc : t -> Graph.t -> Dc.t
(** Package with the matching router: direct edges go direct, removed edges
    take a uniformly random shortest path in the spanner (length [≤ 2k−1]
    by construction). *)
