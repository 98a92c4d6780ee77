(** The support structure of Section 4 (Figures 3 and 4).

    Definitions, for a graph [G]:
    - a {e 2-detour} with base [{u, z}] and router [x] is the edge pair
      [(u,x), (x,z)]; the base is [a]-{e supported} when at least [a] distinct
      routers exist, i.e. [|N(u) ∩ N(z)| ≥ a];
    - an {e extension} of edge [(u,v)] toward [v] is an edge [(v,z)] with
      [z ≠ u]; it is [a]-supported when the base [{u, z}] is
      [(a+1)]-supported (one of the 2-detours being the one through [v]);
    - edge [(u,v)] is [(a,b)]-{e supported toward} [v] when at least [b] of
      its extensions toward [v] are [a]-supported.  Each such edge owns
      [≥ a·b] 3-detours [u–x–z–v].

    Algorithm 1 keeps an edge out of the spanner only if it is
    [(λΔ', c₁Δ)]-supported in some direction — i.e. it has enough 3-detours
    that some survive the sampling w.h.p. *)

val base_support : Bitmat.t -> int -> int -> int
(** [base_support bm u z = |N(u) ∩ N(z)|], the number of 2-detours with base
    [{u, z}]. *)

val supported_extensions : Graph.t -> Bitmat.t -> u:int -> v:int -> a:int -> int list
(** [supported_extensions g bm ~u ~v ~a] lists the routers [z] of
    [a]-supported extensions [(v, z)] of the edge [(u, v)] toward [v]. *)

val count_supported_extensions :
  Graph.t -> Bitmat.t -> u:int -> v:int -> a:int -> limit:int -> int
(** Same as above but only counts, stopping early at [limit] (the census and
    Algorithm 1 only need threshold comparisons). *)

val is_ab_supported_toward : Graph.t -> Bitmat.t -> u:int -> v:int -> a:int -> b:int -> bool
(** Whether edge [(u,v)] is [(a,b)]-supported toward [v]. *)

val is_ab_supported : Graph.t -> Bitmat.t -> int -> int -> a:int -> b:int -> bool
(** Whether the edge is [(a,b)]-supported toward at least one direction —
    the membership test for [Ê] in Algorithm 1 (line 8). *)

val reinsert_unsupported : Graph.t -> Graph.t -> a:int -> b:(int -> int -> int) -> int
(** [reinsert_unsupported g h ~a ~b] is Algorithm 1's line 9 (and
    {!Irregular_dc}'s): it adds to [h], in {!Graph.iter_edges}[ g] order and
    at its weight in [g], every edge [(u, v)] of [g] that [h] lacks and that
    is not [(a, b u v)]-supported in either direction, and returns how
    many.  The
    decisions are those of {!is_ab_supported}; the base test toward [v] is
    memoized per source [u], so each base [{u, z}] is counted once. *)

val repair : Graph.t -> Graph.t -> bound:int -> int
(** [repair g h ~bound] adds back to [h], at its weight in [g], every edge
    of [g] whose distance in [h] exceeds [bound] times its weight
    ({!Stretch.violations}[ g h ~bound]), and returns how many.  Adding
    edges only shortens distances, so afterwards every edge of [g] meets
    the bound.  At [~bound:3] it is Algorithm 1's repair pass: on unit
    weights the re-added edges are exactly those with no 2- or 3-detour in
    [h].  {!Khop_dc} and {!Elkin_neiman} repair to [2k − 1]. *)

val three_detours : Graph.t -> u:int -> v:int -> cap:int -> (int * int) list
(** [three_detours h ~u ~v ~cap] enumerates up to [cap] pairs [(x, z)] such
    that [u–x–z–v] is a path in [h] avoiding the edge [(u,v)] itself
    ([x ≠ v], [z ≠ u], [x ≠ z]).  These are the candidate replacement paths
    for a removed edge. *)

val two_detours : Graph.t -> u:int -> v:int -> cap:int -> int list
(** Up to [cap] common neighbors [x] of [u] and [v] in [h]: 2-hop
    replacements [u–x–v]. *)

type census = {
  edges_total : int;
  edges_supported : int;  (** members of [Ê] for the thresholds used *)
  extension_counts : int array;  (** per sampled edge: #a-supported extensions (best direction) *)
  detour_counts : int array;  (** per sampled edge: #3-detours (capped) *)
}

val census :
  ?sample:int -> ?cap:int -> Prng.t -> Graph.t -> a:int -> b:int -> census
(** Support census over (a sample of) the edges — the quantitative version of
    Figures 3–4 printed by the [figures/fig34_support] bench block. *)
