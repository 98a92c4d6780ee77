(** Weighted Baswana–Sen [(2k−1)]-distance spanner [BS07].

    The randomized clustering construction generalized to positive integer
    edge weights: [k − 1] sampling rounds form clusters over the residual
    graph, keeping per-cluster lightest edges, and a final vertex–cluster
    joining pass covers the surviving residual edges.  The spanner has
    expected [O(k · n^{1 + 1/k})] edges and deterministic weighted distance
    stretch [≤ 2k − 1] — every edge [(u,v)] of [G] satisfies
    [d_H(u,v) ≤ (2k−1) · w(u,v)] — regardless of the sampling draws
    (randomness only affects the size).  No congestion guarantee.

    A build costs [O(k · m)] with no hashing.  [G] is read in place and
    never copied or mutated.  It allocates one byte per arc of [G] plus
    [O(n + m(H))] words and the round's dropped edges, and keeps none of it
    past the call.

    On an unweighted graph this is simply Baswana–Sen with all weights 1;
    the registry entry [baswana-sen-weighted] (alias [bsw]) uses [k = 2] for
    a weighted stretch-3 baseline next to the paper's constructions. *)

val build : ?k:int -> Prng.t -> Graph.t -> Graph.t
(** [build ~k rng g] samples a [(2k−1)]-spanner of [g] ([k] defaults to 2).
    The result preserves edge weights (it is a subgraph) and comes back
    committed: its {!Graph.snapshot} is cached, with a weight array exactly
    when some kept edge weighs [<> 1].  Raises [Invalid_argument] if
    [k < 1].  Deterministic given the generator state. *)
