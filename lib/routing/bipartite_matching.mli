(** Maximum bipartite matching (Hopcroft–Karp).

    Lemma 4 of the paper guarantees a matching of size [Δ(1 − λn/Δ²)] between
    the neighborhoods of any two nodes of an expander; Theorem 2's spanner
    routes a removed edge [{u,v}] over a random edge of that matching that
    survived the sampling.  This module computes those matchings exactly. *)

val maximum :
  left:int array -> right:int array -> adj:(int -> int -> bool) -> (int * int) array
(** [maximum ~left ~right ~adj] computes a maximum matching of the bipartite
    graph whose parts are the two node arrays and where [adj l r] tells
    whether the pair is connected.  Both arrays must contain distinct values
    (within themselves); entries shared between the two arrays are treated as
    distinct left/right copies with no implicit self-edge.  Returns pairs of
    node {e values} [(l, r)].  Building the graph makes [|left|·|right|]
    calls to [adj]; the search then runs in [O(E √V)]. *)

val neighborhood_matching : Graph.t -> int -> int -> int list * (int * int) array
(** [neighborhood_matching g u v] realizes Lemma 4 / Figure 2 for the pair
    [(u, v)]: it returns [(commons, matched)] where [commons] are the common
    neighbors of [u] and [v], ascending (each yields a 2-hop path [u–x–v]), and
    [matched] is a maximum matching, using [E(g)], between the exclusive
    neighborhoods [N(u) \ (N(v) ∪ {v})] and [N(v) \ (N(u) ∪ {u})] (each edge
    [(x, y)] yields the 3-hop path [u–x–y–v]).  The Lemma 4 bound applies to
    [|commons| + |matched|].

    With [L] and [R] the two exclusive neighbourhoods, building the
    bipartite graph costs [O(Σ_{x∈L} deg x + |L|·|R|)]: one scan of each
    left node's neighbour row, with no edge-membership probes.  The search
    then runs in [O(E √V)], the same Hopcroft–Karp as {!maximum}, and the
    result equals [maximum] with [adj = Graph.mem_edge g] over the sorted
    neighbourhoods.  Node tags live in a per-domain arena of two [n]-int
    arrays ({!Domain.DLS}) that each call resets before returning, so
    concurrent domains share nothing and, once the arena has grown to [n],
    a call does no [Θ(n)] work. *)
