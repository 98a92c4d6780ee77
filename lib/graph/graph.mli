(** Simple undirected graphs on nodes [0 .. n-1].

    This is the central mutable representation used while *constructing*
    graphs and spanners.  Storage is a delta log over an immutable
    Bigarray-backed CSR base ({!Csr.t}).  The delta is each node's added
    edges, in one flat buffer ascending by neighbour, plus, while deletions
    are pending, one tombstone byte per base arc.  A row reads as the
    ascending merge of the base row, skipping tombstoned arcs in place, with
    the node's buffer.  So every row reads ascending at every point, and
    everything read from a graph is a function of its edge set alone.  A
    mutation costs binary searches in a base row and a buffer, plus an
    insertion that is an append when additions arrive ascending (as in a
    pass over {!iter_edges}).  Once the delta reaches half the base size it
    is committed: the rows, as read, are written into a new store
    ({!Csr.of_rows}) in O(n + m).  A commit changes the layout only, never
    what a read returns.  Algorithms that only traverse a fixed graph should
    take a {!Csr.t} snapshot (see {!snapshot}) for zero-overhead
    iteration.

    Edges are unordered pairs of distinct nodes; self-loops and parallel edges
    are rejected/ignored.  In printed form and in edge lists, an edge is
    normalized as [(u, v)] with [u < v]. *)

type t

type csr = Csr.t
(** The snapshot type, {!Csr.t}; its record and read API live in {!Csr}. *)

type edge = int * int
(** Normalized edge: [(u, v)] with [u < v]. *)

val create : int -> t
(** [create n] is the empty graph on [n] nodes. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of edges. *)

val add_edge : ?weight:int -> t -> int -> int -> bool
(** [add_edge g u v] inserts the edge; returns [false] if it already existed
    or [u = v].  Raises [Invalid_argument] if an endpoint is out of range or
    [weight < 1].  [weight] defaults to [1]; passing any weight [<> 1] makes
    the graph weighted (see {!is_weighted}) — a graph whose edges all carry
    weight 1 is indistinguishable from, and treated as, an unweighted one. *)

val remove_edge : t -> int -> int -> bool
(** [remove_edge g u v] deletes the edge; returns [false] if absent. *)

val mem_edge : t -> int -> int -> bool
(** Edge membership test: a binary search in the base row plus a tombstone
    byte test, and a binary search in the node's additions. *)

val degree : t -> int -> int
(** Number of neighbors of a node. *)

val neighbors : t -> int -> int list
(** Neighbor list of a node, descending (the reverse of the
    {!iter_neighbors} order). *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Iterate over neighbors without materializing a list, ascending, whatever
    the graph's commit history: the same order as a {!Csr.t} row. *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** Fold over neighbors. *)

val edges : t -> edge list
(** All edges, normalized, in the reverse of the {!iter_edges} order. *)

val edge_array : t -> edge array
(** All edges as an array, normalized, in {!iter_edges} order. *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterate each edge exactly once as [(u, v)] with [u < v], ascending
    lexicographically. *)

val is_weighted : t -> bool
(** Whether some live edge carries a weight [<> 1].  Exact at every point:
    {!add_edge} and {!remove_edge} maintain a count of such edges, so a
    graph whose last non-unit edge is removed is unweighted again.  The
    certificates read it to judge a removed edge by its weighted stretch
    [⌈d_H / w⌉] instead of its hop count; both kinds run on the
    bit-parallel {!Bfs_batch.to_targets} sweep (a weighted snapshot fills
    its ring of pending levels), and only a spanner whose heaviest arc
    exceeds {!Bfs_batch.ring_max} takes per-group Dijkstra. *)

val edge_weight : t -> int -> int -> int
(** Weight of an edge ([1] on unweighted graphs).  Raises [Invalid_argument]
    if the edge is absent. *)

val iter_neighbors_w : t -> int -> (int -> int -> unit) -> unit
(** Like {!iter_neighbors} but passing each edge's weight. *)

val iter_edges_w : t -> (int -> int -> int -> unit) -> unit
(** Like {!iter_edges} but passing each edge's weight. *)

val copy : t -> t
(** Deep copy. *)

val of_edges : int -> (int * int) list -> t
(** [of_edges n es] builds a graph on [n] nodes from an edge list (duplicates
    and self-loops ignored). *)

val of_weighted_edges : int -> (int * int * int) list -> t
(** [of_weighted_edges n es] builds a graph from [(u, v, w)] triples via
    [add_edge ~weight:w] (duplicates keep their first weight). *)

val of_csr : csr -> t
(** [of_csr c] adopts a CSR store as the committed base of a new graph in
    O(n): no edges are copied, the delta starts empty, and the store is also
    installed as the cached {!snapshot}.  A weighted store whose weights are
    all 1 is adopted as an unweighted copy, so the snapshot has a weight
    array exactly when {!is_weighted} holds.  This is the bridge from
    streaming builders ({!Csr.of_stream}, {!Generators.expander}) into the
    mutable API. *)

val empty_like : t -> t
(** Graph with the same node set and no edges. *)

val is_subgraph : t -> of_:t -> bool
(** [is_subgraph h ~of_:g] checks [V(h) = V(g)] and [E(h) ⊆ E(g)] — the
    spanner well-formedness condition of the paper (Section 2).  When
    either graph is weighted ({!is_weighted}), every edge of [h] must also
    carry its weight in [g]; two unit-weight graphs cost one {!mem_edge}
    probe per edge of [h]. *)

val max_degree : t -> int
(** Largest node degree ([0] for the empty graph). *)

val min_degree : t -> int
(** Smallest node degree ([0] for the empty graph on ≥ 1 node). *)

val is_regular : t -> bool
(** Whether all nodes have equal degree. *)

val isolate : t -> int -> int
(** [isolate g v] removes every edge incident to [v] (the graph-side effect
    of a node failure: the node set is fixed, a failed node just loses its
    links).  Returns the number of edges removed. *)

val filter_edges : t -> (int -> int -> bool) -> t
(** [filter_edges g keep] is the subgraph on the same node set keeping, at
    its weight, each edge [(u, v)] of [g] for which [keep u v] holds.
    [keep] is called once per edge, in {!iter_edges} order, so a sampling
    pass that draws its coins in [keep] draws them in that order. *)

val survivor : t -> alive:bool array -> t
(** [survivor g ~alive] is the subgraph on the same node set keeping exactly
    the edges whose two endpoints are alive.  Raises [Invalid_argument] if
    [alive] is not of length [n g]. *)

val common_neighbors : t -> int -> int -> int list
(** [common_neighbors g u v] lists nodes adjacent to both [u] and [v]; these
    are exactly the routers of 2-detours with base [{u, v}] (Section 4). *)

val version : t -> int
(** Mutation counter: incremented by every {!add_edge} / {!remove_edge} (and
    hence {!isolate}) that actually changes the edge set.  Two reads returning
    the same value bracket a window in which the graph was not mutated. *)

val to_csr : t -> csr
(** Build a fresh CSR snapshot by counting sort ({!Csr.of_stream} or
    {!Csr.of_weighted_stream} over {!iter_edges}), bypassing the cache and
    leaving the graph's delta uncommitted.  Neighbor lists are sorted
    ascending, so the snapshot is canonical for a given edge set.  No
    library code calls it: it is the independent build that the tests hold
    {!snapshot} and every read to.  Prefer {!snapshot} unless you
    specifically need a new physical copy. *)

val snapshot : t -> csr
(** The memoized CSR snapshot: rebuilt only when {!version} has moved since
    the previous call, otherwise the cached (physically equal) snapshot is
    returned.  Taking a snapshot commits any outstanding delta into the base
    (each row written as it reads, by {!Csr.of_rows}: element for element
    {!to_csr}), so the returned store doubles as the graph's primary
    storage until the next mutation; no read of the graph changes.  Cache behavior is observable through the
    [csr.snapshot_hits] / [csr.snapshot_builds] metrics.  The result is
    immutable and remains valid after further mutations (they simply stop
    sharing). *)

val pp : Format.formatter -> t -> unit
(** Debug printer: node/edge counts and adjacency of small graphs. *)
