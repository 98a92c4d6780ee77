(** DC-spanners for arbitrary-degree graphs — the paper's open problem 3.

    The paper proves Theorem 3 for Δ-regular graphs and notes (footnote 1)
    that the result extends to graphs with all degrees [Θ(Δ)]; Section 8
    leaves truly irregular graphs open.  This module implements the natural
    degree-local generalization of Algorithm 1:

    - edge [(u, v)] is kept with probability [ρ_{uv} = 1/√d_{uv}] where
      [d_{uv} = min(deg u, deg v)] — on a regular graph this is exactly
      Algorithm 1's [1/√Δ], and low-degree regions (which cannot afford to
      lose edges) sample at rate ≈ 1;
    - the support reinsertion rule uses per-edge thresholds
      [(a, b) = (max 2 ⌈ln n⌉, max 1 ⌊d_{uv}/4⌋)]: an edge must have
      [Ω(d_{uv})] well-supported extensions to stay removable
      ({!Support.reinsert_unsupported}, the pass Algorithm 1 runs);
    - the repair pass (one {!Stretch.violations} sweep at bound 3,
      {!Support.repair}) and the random 2-/3-detour router are unchanged.

    Exploratory like {!Khop_dc}: measured in the [ablations/irregular] bench
    block on Chung–Lu and preferential-attachment graphs, no analytical
    guarantee claimed beyond the stretch-3 certificate (which repair makes
    unconditional). *)

type t = {
  spanner : Graph.t;
  sampled : Graph.t;
  reinserted : int;  (** unsupported edges put back *)
  repaired : int;  (** detour-less removed edges put back *)
}

val build : ?repair:bool -> Prng.t -> Graph.t -> t
(** Build the degree-local DC-spanner ([repair] defaults to [true]). *)

val to_dc : t -> Graph.t -> Dc.t
(** Package with Algorithm 1's random-detour router ({!Regular_dc.detours},
    cap 64). *)
