(** Algorithm 1: DC-spanner for Δ-regular graphs (paper Section 4, Theorem 3).

    Pipeline, for a Δ-regular graph [G] with [Δ ≥ n^{2/3}]:

    + {b Sample} every edge independently with probability [ρ = Δ'/Δ]
      ([Δ' = √Δ]), giving [G'] with [O(n√Δ)] edges (Lemma 9);
    + {b Reinsert} every edge that is {e not} [(λΔ', c₁Δ)]-supported in either
      direction ([E'' = E \ Ê], line 9) — Lemma 10 bounds [|E''|] by
      [O(λ n² Δ'/Δ) = Õ(n^{5/3})];
    + optionally {b repair}: reinsert any removed supported edge whose
      2- and 3-detours all vanished (the event Corollary 2 shows has
      probability [O(1/n)]); with repair the result is a 3-distance-spanner
      {e deterministically}.  Those edges are exactly the ones with
      [d_H(u, v) > 3], so the pass is one {!Stretch.violations} sweep
      ({!Support.repair}).

    A removed edge is routed over one of its surviving 3-detours chosen
    uniformly at random; Lemma 17 bounds the congestion of any matching
    routed this way by [1 + 2√Δ], and Theorem 1 lifts this to
    [O(√Δ · log n)] for arbitrary routings.

    {b Constants.}  The paper's [λ = 2⁷ ln² n / c₁] makes [λΔ' > Δ] at any
    laptop-scale [n] (then [Ê = ∅] and the spanner degenerates to [G]).  The
    support thresholds [(a, b)] are therefore parameters; the defaults
    [a = max 2 ⌈ln n⌉, b = max 1 ⌊Δ/4⌋] keep the algorithm's structure (an
    edge stays removable only if it has [Θ(Δ ln n)] 3-detours) at
    experiment scale.
    [`Paper] selects the paper's formula (with [c₁ = 1/2]) for asymptotic
    fidelity.  See DESIGN.md §3.5. *)

type thresholds =
  | Scaled  (** [a = max 2 ⌈ln n⌉], [b = max 1 ⌊Δ/4⌋] — experiment-scale defaults *)
  | Paper  (** [a = ⌈λΔ'⌉] with [λ = 2⁷ ln² n / c₁], [b = ⌈c₁Δ⌉], [c₁ = 1/2] *)
  | Explicit of int * int  (** given [(a, b)] directly *)

type t = {
  spanner : Graph.t;  (** the DC-spanner [H] *)
  sampled : Graph.t;  (** the intermediate sampled graph [G'] *)
  reinserted : int;  (** [|E''|]: unsupported edges put back (line 9) *)
  repaired : int;  (** edges put back by the repair pass *)
  support_a : int;  (** the [a] threshold actually used *)
  support_b : int;  (** the [b] threshold actually used *)
  delta : int;  (** input degree [Δ] *)
  delta' : int;  (** [Δ' = ⌈√Δ⌉] *)
}

val build : ?thresholds:thresholds -> ?repair:bool -> Prng.t -> Graph.t -> t
(** Run Algorithm 1.  [repair] defaults to [true].  The input should be
    (near-)regular; [Δ] is taken as the maximum degree.  Deterministic given
    the generator state. *)

val detours : Graph.t -> cap:int -> int -> int -> Dc.paths
(** The Lemma 17 path distribution on spanner [H]: [Direct] for an edge of
    [H]; otherwise a uniform pick among the 2-detours and then the
    3-detours of [(u, v)] surviving in [H] (at most [cap] of each, oriented
    first→second).  Empty when none survived, so the router falls back to a
    BFS shortest path (Corollary 2 makes this a low-probability event). *)

val to_dc : ?detour_cap:int -> t -> Graph.t -> Dc.t
(** Package with the {!detours} router as a {!Dc.t} (detour cap defaults
    to 64). *)
