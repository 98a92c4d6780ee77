(** Bit-parallel batched BFS: up to {!width} sources per sweep, each with its
    own set of targets.

    The certification hot loops (stretch certificates, [Dc_check],
    all-pairs distances) run thousands of independent BFS traversals over
    the same read-only {!Csr.t} snapshot.  This kernel amortizes them: each
    node carries one machine word whose bit [j] means "source [j] has
    reached this node", so one level expansion serves every source in the
    batch with a single OR-scatter over the adjacency — the same 63-bits-
    per-word trick as {!Bitmat}.

    {b Output-sensitive.}  A sweep touches only the balls it explores.  The
    frontier and the nodes each scatter writes are kept as node lists, so a
    level costs the arcs out of its frontier plus one word per node those
    arcs reach — never a scan of all [n] nodes — and the per-domain arena
    ({!Domain.DLS}) is reset by clearing exactly the entries the sweep
    wrote.  A distance is recorded only where a source settles at one of
    its own targets, and a source leaves the frontier the moment it has met
    all of its targets; the sweep ends when no source has targets left, the
    frontier empties, or the bound is reached.  A sweep therefore costs
    [O(Σ_j |ball_j| · deg + k + Σ_j |targets.(j)|)] word operations, where
    [ball_j] is the part of source [j]'s bounded ball it explored before
    meeting its last target — independent of [n] once the arena is grown.

    Results are bit-identical to per-source {!Bfs.distances_bounded} at
    each target: BFS levels are hop distances and the kernel is
    deterministic (property-tested in [test_kernels]).

    Observability: [bfs_batch.sweeps] counts kernel invocations;
    [bfs_batch.words] counts word operations (one per arc scattered out of
    a live frontier node, plus one per node the scatter wrote), added once
    per sweep — a machine-independent measure of the explored balls;
    [bfs.nodes_visited] counts (source, node) discoveries, by popcount, so
    it drops when sources stop early; [bfs.scratch_reuses] counts arena
    hits. *)

val width : int
(** Number of sources a single sweep can carry: the native word width,
    63 on 64-bit OCaml. *)

val to_targets : ?bound:int -> Csr.t -> int array -> int array array -> int array array
(** [to_targets g sources targets] is the batched BFS from every source at
    once, reported at the targets only: entry [i] of row [j] is the hop
    distance from [sources.(j)] to [targets.(j).(i)] ([-1] where
    unreachable), exactly [(Bfs.distances g sources.(j)).(targets.(j).(i))].
    With [~bound], farther targets report [-1], exactly
    {!Bfs.distances_bounded}.  Source [j] stops expanding once it has met
    every node of [targets.(j)]; one with no targets never expands.
    Duplicate sources and duplicate targets are allowed, and a source may
    be among its own targets (distance 0).  Raises [Invalid_argument] if
    [Array.length sources > width], [targets] does not have one array per
    source, or a source or target is out of range. *)

val run : ?bound:int -> Csr.t -> int array -> int array array
(** [run g sources] is {!to_targets} with every node as a target of every
    source: row [j] is the full hop-distance array from [sources.(j)],
    exactly [Bfs.distances g sources.(j)] ([Bfs.distances_bounded] with
    [~bound]).  Same errors as {!to_targets}. *)

val batches : int -> int array array
(** [batches n] splits the source range [0 .. n-1] into consecutive
    {!width}-sized slices — the canonical work units for feeding a full
    graph through {!run}, e.g. under [Parallel.map_range]. *)
