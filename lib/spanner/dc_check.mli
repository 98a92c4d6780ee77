(** Empirical verification of the DC-spanner property (Definitions 3 and 4).

    A certificate that [H] is an [(α, β)]-DC-spanner would quantify over all
    routings; this module provides the strongest checks that are computable:

    - {!check_routing}: given a concrete routing [P] on [G], verify that the
      substitute routing produced by the construction is a valid
      [(α, β)]-stretch substitute — correct endpoints, paths in [H], every
      path at most [α·l(p)] long, congestion at most [β·C(P)];
    - {!estimate}: Definition 4's probabilistic variant — sample random
      routing problems of several shapes (edge matchings, node matchings,
      permutations, random pairs), run {!check_routing} on each, and report
      the success rate [ρ] together with the worst stretches observed.

    The test suite uses {!check_routing} as an oracle for every
    construction; the benchmark harness reports {!estimate} values. *)

type violation =
  | Invalid_substitute  (** endpoints or edges wrong — a construction bug *)
  | Distance of float  (** worst path stretch, exceeds [α] *)
  | Congestion of float  (** congestion ratio, exceeds [β] *)

type verdict = {
  ok : bool;
  dist_stretch : float;  (** max over paths of [l(p')/l(p)] *)
  cong_stretch : float;  (** [C(P')/C(P)] *)
  violations : violation list;
}

val check_routing :
  alpha:float -> beta:float -> Dc.t -> Prng.t -> Routing.routing -> verdict
(** Route [P] through the construction's Theorem 1 pipeline and check the
    [(α, β)]-stretch-substitute conditions against it. *)

type estimate = {
  trials : int;
  successes : int;
  rate : float;  (** empirical [ρ] of Definition 4 *)
  worst_dist : float;
  worst_cong : float;
  cert_dist : int;
      (** exact distance stretch over {e all} removed edges
          ({!Stretch.exact_parallel}, batched kernel) — an unconditional
          certificate alongside the sampled routing trials; [max_int] if the
          spanner disconnects some edge *)
}

val estimate :
  ?trials:int -> alpha:float -> beta:float -> Dc.t -> Prng.t -> estimate
(** Sample [trials] (default 20) random routing problems across the four
    workload shapes and report the fraction that admit an [(α, β)]-stretch
    substitute via the construction.  Raises [Invalid_argument] when
    [trials < 1]: zero sampled routings estimate nothing. *)
