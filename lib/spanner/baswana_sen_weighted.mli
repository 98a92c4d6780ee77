(** Baswana–Sen [(2k−1)]-distance spanner [BS07], on unit and positive
    integer edge weights alike.

    The randomized clustering construction: [k − 1] sampling rounds form
    clusters over the residual graph, keeping per-cluster lightest edges,
    and a final vertex–cluster joining pass covers the surviving residual
    edges.  A vertex joining a sampled cluster over an edge of weight [w*]
    covers that cluster and every cluster whose lightest edge weighs
    strictly less than [w*]; an adjacent cluster at exactly [w*] stays
    residual, and a later round or the joining pass keeps an edge no
    heavier into it, which is why the [(2k−1)·w] bound survives.  Each
    round ends by discarding every residual edge inside one of its new
    clusters.  (weight, neighbour) picks each cluster's lightest edge and
    the cluster to join.  The spanner has expected [O(k · n^{1 + 1/k})]
    edges and deterministic weighted distance stretch [≤ 2k − 1] — every
    edge [(u,v)] of [G] satisfies [d_H(u,v) ≤ (2k−1) · w(u,v)] — regardless
    of the sampling draws (randomness only affects the size).  No
    congestion guarantee.

    A build costs [O(k · m)] with no hashing.  [G] is read in place and
    never copied or mutated.  It allocates one byte per arc of [G] plus
    [O(n + m(H))] words and the round's dropped edges, and keeps none of it
    past the call.

    The registry entry [baswana-sen] (aliases [baswana-sen-weighted],
    [bsw]) uses [k = 2] for a stretch-3 baseline next to the paper's
    constructions. *)

val build : ?k:int -> Prng.t -> Graph.t -> Graph.t
(** [build ~k rng g] samples a [(2k−1)]-spanner of [g] ([k] defaults to 2).
    The result preserves edge weights (it is a subgraph) and comes back
    committed: its {!Graph.snapshot} is cached, with a weight array exactly
    when some kept edge weighs [<> 1].  Raises [Invalid_argument] if
    [k < 1].  Deterministic given the generator state. *)
