(** Theorem 2: DC-spanner for dense regular expanders (paper Section 3).

    For an [n^{2/3+ε}]-regular expander with [λ = o(n^{1/3+2ε})]:

    + every edge is kept independently with probability [1/n^ε], so the
      spanner has [O(n^{5/3})] edges w.h.p. (Lemma 7);
    + for a removed edge [{u, v}], Lemma 4 (via the expander mixing lemma)
      guarantees a matching of size [Δ(1 − λn/Δ²)] between [N(u)] and [N(v)];
      a large fraction survives the sampling (Lemma 5), and both connector
      edges survive for at least one matching edge w.h.p. (Lemma 6), yielding
      a 3-hop replacement path and distance stretch 3;
    + the replacement path is chosen uniformly at random among the surviving
      3-hop paths across the matching, giving expected congestion [1 + o(1)]
      and [O(log n)] w.h.p. for matching routing problems (Lemma 7), hence
      [O(log² n)] for general routings via Theorem 1.

    The sampling probability defaults to [n^{2/3}/Δ] (the paper's [1/n^ε]
    expressed through the actual degree), so the construction applies to any
    given (near-)regular expander without naming [ε] explicitly. *)

type t = {
  spanner : Graph.t;
  p : float;  (** sampling probability used *)
  fallbacks : int ref;  (** router requests that needed a BFS fallback *)
  cache : (int * int, Routing.path array) Hashtbl.t;
      (** memoized surviving replacement paths per removed (normalized)
          edge; the Lemma 4 matching is request-independent, so repeated
          routing reuses it *)
}

val build : ?p:float -> Prng.t -> Graph.t -> t
(** Sample the spanner.  [p] overrides the default [n^{2/3}/Δ] (clamped to
    [(0, 1]]). *)

val candidates : Graph.t -> sampled:(int -> int -> bool) -> int -> int -> Routing.path array
(** [candidates g ~sampled u v]: the replacement paths of request [(u, v)],
    oriented from [u] and not cached.  First the 2-hop paths [u–x–v] over
    the common neighbors [x] of [u] and [v] in [g], ascending, then the
    3-hop paths [u–x–y–v] over the Lemma 4 maximum matching between the
    exclusive neighborhoods ({!Bipartite_matching.neighborhood_matching}),
    keeping the paths whose every edge is [sampled] (Lemma 6).  {!to_dc}'s
    router caches it on the normalized pair; {!Dist_expander} runs it on a
    node's 2-hop view. *)

val to_dc : t -> Graph.t -> Dc.t
(** Package spanner [t] of graph [g] with the Lemma 6/7 matching router:
    spanner-edge requests go direct; a removed edge routes across a
    uniformly random surviving 3-hop path over the maximum matching between
    the endpoint neighborhoods (2-hop paths via surviving common neighbors
    are also candidates), drawn from [t.cache].  When nothing survived the
    router takes a BFS shortest path; each read of that empty distribution
    counts in [t.fallbacks]. *)
