(** Bit-parallel batched BFS: up to {!width} sources per sweep, each with its
    own set of targets, measuring hops or integer arc weights.

    The certification hot loops (stretch certificates, [Dc_check],
    all-pairs distances) run thousands of independent traversals over the
    same read-only {!Csr.t} snapshot.  This kernel amortizes them: each
    node carries one machine word whose bit [j] means "source [j] has
    reached this node", so one level expansion serves every source in the
    batch with a single OR-scatter over the adjacency — the same 63-bits-
    per-word trick as {!Bitmat}.

    {b Weights: a ring of pending levels.}  Levels are distances.  On a
    weighted snapshot an arc of weight [w] scattered at level [t] delivers
    its sources [w] levels later, so arrivals wait in a ring of
    [S = min (Csr.max_weight g) bound] mask slots (at least one): level [t]
    gathers slot [t mod S], and the scatter ORs each frontier node's mask
    into slot [(t + w) mod S], skipping arcs with [w > bound - t].  Levels
    are gathered in increasing order and every arrival at a level is
    scattered before that level is gathered, so the first level a source
    reaches a node at is its exact weighted distance — Dijkstra's order,
    kept by a bucket queue of word masks.  On an unweighted snapshot (or
    one whose arcs all weigh 1) [S = 1] and the loop is the plain MS-BFS.
    Extra slots cost [2 n] words each in the per-domain arena; they are
    made the first time a sweep needs them, so unweighted sweeps never
    allocate them.  [S] may not exceed {!ring_max}: past it the sources no
    longer share levels and a per-source {!Dijkstra.to_targets} is
    cheaper.

    {b Output-sensitive.}  A sweep touches only the balls it explores.  The
    frontier and the nodes each scatter writes are kept as node lists, so a
    level costs the arcs out of its frontier plus one word per node those
    arcs reach — never a scan of all [n] nodes — and the per-domain arena
    ({!Domain.DLS}) is reset by clearing exactly the entries the sweep
    wrote, arrivals still waiting in the ring included.  A distance is
    recorded only where a source settles at one of its own targets, and a
    source leaves the frontier the moment it has met all of its targets;
    the sweep ends when no source has targets left, no node is pending in
    any ring slot, or the bound is reached.  A sweep therefore costs
    [O(Σ_j |ball_j| · deg + k + Σ_j |targets.(j)| + L)] word operations,
    where [ball_j] is the part of source [j]'s bounded ball it explored
    before meeting its last target and [L] the number of levels passed —
    independent of [n] once the arena is grown.

    Results are bit-identical to per-source {!Bfs.distances_bounded} (hops)
    or {!Dijkstra.distances_bounded} (weights) at each target: the kernel
    is deterministic (property-tested in [test_kernels]).

    Observability, unit and weighted sweeps alike: [bfs_batch.sweeps]
    counts kernel invocations; [bfs_batch.words] counts word operations
    (one per arc scanned out of a live frontier node, plus one per node a
    gather read), added once per sweep — a machine-independent measure of
    the explored balls; [bfs.nodes_visited] counts (source, node)
    discoveries, by popcount, so it drops when sources stop early;
    [bfs.scratch_reuses] counts arena hits. *)

val width : int
(** Number of sources a single sweep can carry: the native word width,
    63 on 64-bit OCaml. *)

val ring_max : int
(** The largest ring {!to_targets} runs: 16 slots, [32 n] words per
    domain.  Snapshots whose arcs weigh at most this run on the ring at any
    bound; the certificates send heavier ones to {!Dijkstra.to_targets}. *)

val to_targets : ?bound:int -> Csr.t -> int array -> int array array -> int array array
(** [to_targets g sources targets] is the batched shortest-path sweep from
    every source at once, reported at the targets only: entry [i] of row
    [j] is the weighted distance from [sources.(j)] to [targets.(j).(i)]
    ([-1] where unreachable), exactly
    [(Dijkstra.distances g sources.(j)).(targets.(j).(i))] — the hop
    distance of {!Bfs.distances} on an unweighted snapshot.  With [~bound],
    farther targets report [-1], exactly {!Dijkstra.distances_bounded}.
    Source [j] stops expanding once it has met every node of
    [targets.(j)]; one with no targets never expands.  Duplicate sources
    and duplicate targets are allowed, and a source may be among its own
    targets (distance 0).  Raises [Invalid_argument] if
    [Array.length sources > width], [targets] does not have one array per
    source, a source or target is out of range, or
    [min (Csr.max_weight g) bound > ring_max]. *)

val run : ?bound:int -> Csr.t -> int array -> int array array
(** [run g sources] is the hop-distance sweep with every node as a target
    of every source: row [j] is the full hop-distance array from
    [sources.(j)], exactly [Bfs.distances g sources.(j)]
    ([Bfs.distances_bounded] with [~bound]).  Arc weights are ignored, so
    it never needs more than one ring slot.  The errors of {!to_targets}
    other than the ring size. *)

val batches : int -> int array array
(** [batches n] splits the source range [0 .. n-1] into consecutive
    {!width}-sized slices — the canonical work units for feeding a full
    graph through {!run}, e.g. under [Parallel.map_range]. *)
