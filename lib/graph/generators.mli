(** Synthetic graph families.

    These are the inputs of every experiment: deterministic topologies for
    unit tests and closed-form spectral checks, random Δ-regular graphs
    (near-Ramanujan w.h.p., the paper's expander stand-in — DESIGN.md §3.1),
    the explicit Margulis–Gabber–Galil expander, and the
    two-cliques-plus-matching graph of Figure 1. *)

val complete : int -> Graph.t
(** Complete graph [K_n]. *)

val complete_bipartite : int -> int -> Graph.t
(** [complete_bipartite a b] is [K_{a,b}] with left part [0..a-1]. *)

val cycle : int -> Graph.t
(** Cycle [C_n] (requires [n >= 3]). *)

val path : int -> Graph.t
(** Path on [n] nodes. *)

val star : int -> Graph.t
(** Star with center [0] and [n-1] leaves. *)

val grid : int -> int -> Graph.t
(** [grid rows cols]: 2-D mesh, node [(r, c)] is index [r*cols + c]. *)

val torus : int -> int -> Graph.t
(** [torus rows cols]: mesh with wrap-around edges (4-regular when both
    dimensions exceed 2). *)

val hypercube : int -> Graph.t
(** [hypercube d]: the [d]-dimensional Boolean hypercube on [2^d] nodes;
    adjacency eigenvalues are [d - 2k], so [λ = d - 2]. *)

val circulant : int -> int list -> Graph.t
(** [circulant n offsets] connects [i] to [i ± o mod n] for each offset. *)

val erdos_renyi : Prng.t -> int -> float -> Graph.t
(** [erdos_renyi rng n p]: each of the [n(n-1)/2] edges present independently
    with probability [p]. *)

val random_regular : Prng.t -> int -> int -> Graph.t
(** [random_regular rng n d]: uniform-ish simple [d]-regular graph via the
    configuration model with edge-switch repair of self-loops and duplicate
    pairs.  Requires [0 <= d < n] and [n*d] even.  The repair preserves the
    degree sequence exactly; by Friedman's theorem the result has
    [λ = O(√d)] w.h.p., which the experiments verify spectrally. *)

val margulis : int -> Graph.t
(** [margulis m]: the Margulis–Gabber–Galil expander on the [m × m] torus
    ([n = m²] nodes, degree ≤ 8, [λ ≤ 5√2] — a fully explicit bounded-degree
    expander). *)

val two_cliques_matching : int -> Graph.t
(** [two_cliques_matching n] (requires even [n]): two cliques [C_A], [C_B] of
    size [n/2] inter-connected by a perfect matching — the Figure 1 graph.
    Node [i < n/2] is in [C_A] and matched to [i + n/2]. *)

val ring_of_cliques : int -> int -> Graph.t
(** [ring_of_cliques k s]: [k] cliques of size [s] joined in a ring by single
    bridge edges — a natural non-expander control case. *)

val chung_lu : Prng.t -> float array -> Graph.t
(** [chung_lu rng w]: the Chung–Lu random graph with expected degree sequence
    [w] — edge [(i, j)] present with probability [min 1 (w_i·w_j / Σw)].
    Used (with power-law weights) to exercise the arbitrary-degree
    DC-spanner extension on heavy-tailed graphs. *)

val power_law_weights : Prng.t -> n:int -> exponent:float -> w_min:float -> float array
(** Pareto-distributed expected degrees [w_i = w_min · u^{-1/(exponent-1)}]
    for uniform [u], capped at [√(n·w_min)] so Chung–Lu probabilities stay
    below 1.  Typical social/internet-like exponent: 2.5. *)

val preferential_attachment : Prng.t -> n:int -> m:int -> Graph.t
(** Barabási–Albert graph: nodes arrive one at a time and attach [m] edges
    to existing nodes with probability proportional to current degree
    (realized by sampling uniformly from the edge-endpoint multiset).
    Requires [n > m >= 1]. *)

val expander : Prng.t -> int -> int -> Graph.t
(** [expander rng n d]: streaming O(n + m) near-[d]-regular expander — a
    Hamiltonian cycle (connectivity) unioned with [⌈(d-2)/2⌉] uniform random
    permutations (each a 2-regular union of cycles).  Built entirely through
    {!Csr.of_stream}, never {!Graph.add_edge}, so a 10^6-node instance
    costs one counting sort.  Degrees are [d] rounded up to even, minus
    permutation fixed points and duplicate collisions (a o(1) fraction);
    requires [2 <= d < n]. *)

val weighted_expander : Prng.t -> int -> int -> w_max:int -> Graph.t
(** [weighted_expander rng n d ~w_max]: the {!expander} family with uniform
    integer edge weights in [[1, w_max]], streamed through
    {!Csr.of_weighted_stream} (duplicate arcs keep the lighter
    weight).  Requires [w_max >= 1]. *)

val weighted_torus : Prng.t -> int -> int -> w_max:int -> Graph.t
(** [weighted_torus rng rows cols ~w_max]: the {!torus} topology with
    uniform integer edge weights in [[1, w_max]].  Requires [w_max >= 1]. *)

val randomize_weights : Prng.t -> Graph.t -> w_max:int -> Graph.t
(** [randomize_weights rng g ~w_max]: a copy of [g] (same node set, same
    edge set) with every edge's weight redrawn uniformly from
    [[1, w_max]] — turns any generator into a weighted family.  Requires
    [w_max >= 1]. *)
