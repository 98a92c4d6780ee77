(** Distance-stretch measurement (Definition 1).

    For unweighted graphs the worst pairwise stretch of a spanner is attained
    on an edge of [G]: replacing every edge of a shortest path by its spanner
    detour multiplies the length by at most the worst edge detour, and edges
    are themselves pairs at distance 1.  So the exact distance stretch equals
    [max_{(u,v) ∈ E(G)} d_H(u, v)], which is what {!exact} computes.

    {b One kernel.}  Every entry point except {!exact_reference} and
    {!sampled_pairs} is a fold over a single grouped sweep.  Removed edges
    are grouped by their smaller endpoint — [G]'s edges [u < v], with
    [H]-membership read off one stamp of [H]'s snapshot row per source —
    and each group is answered from one bounded sweep from its source.  Up
    to {!Bfs_batch.width} of those sweeps run bit-parallel in a single
    {!Bfs_batch.to_targets} pass, weighted or not, which records only the
    distances to the group's own targets and drops each source once it has
    met all of them, so a sweep costs the balls it explores, not [n] per
    level.  On the paper's regular constructions this is a [Δ × word]-factor
    fewer traversals than the per-edge path ({!exact_reference}), with
    bit-identical certificates — enforced by the property tests.  A
    group's verdict is its worst stretch and its violating edges; the exact
    measurements fold the worst, {!violations} folds the violating edges,
    and the certificate below caches both per source.

    {b Weighted graphs.}  When [g] (or [h]) {!Graph.is_weighted}, distances
    are weighted: the stretch of a removed edge [(u,v)] is the ceiling
    ratio [⌈d_H(u,v) / w(u,v)⌉], so [exact <= b] iff every removed edge
    satisfies [d_H <= b·w].  A batch of groups sweeps to level
    [bound·w_max], [w_max] being the heaviest removed edge among its
    groups, on the kernel's ring of pending levels; a target within its own
    [bound·w] gets its exact distance and a violating one reads [-1] or more
    than [bound·w], so verdicts are those of a per-group sweep.  When [H]'s
    heaviest arc exceeds {!Bfs_batch.ring_max} the sources no longer share
    levels, and each group runs {!Dijkstra.to_targets} at its own
    [bound·w_max] instead.  [bound·w_max] saturates at [max_int] (always
    for {!exact}), so no bound, however large, overflows.  Unit-weight
    pairs run the same kernel on its one-slot ring, byte-for-byte the
    MS-BFS. *)

val exact : ?snapshot:Csr.t -> Graph.t -> Graph.t -> int
(** [exact g h] is the exact distance stretch of spanner [h]: the maximum
    over edges [(u,v)] of [G] of [d_H(u,v)].  Returns [max_int] if some edge
    is disconnected in [h], stopping at the first such batch.  [snapshot],
    when given, must be [Graph.snapshot h] (lets callers reuse one snapshot
    across measurements). *)

val exact_parallel :
  ?domains:int -> ?bound:int -> ?snapshot:Csr.t -> Graph.t -> Graph.t -> int
(** {!exact} fanned out over OCaml 5 domains — one batched sweep
    ({!Bfs_batch.width} source groups, or one group when [H]'s arcs are too
    heavy for the batched kernel) per work unit, read-only snapshots.
    Identical result to the sequential version; used by the harness at full
    scale.  A disconnected removed edge saturates the running max, letting
    every domain stop early.  [bound] as in {!exact_bounded}. *)

val exact_bounded : ?snapshot:Csr.t -> Graph.t -> Graph.t -> bound:int -> int
(** Like {!exact} but sweeps stop at depth [bound]; any edge whose spanner
    distance exceeds [bound] (weighted: [bound·w]) makes the result
    [max_int].  Much faster when the expected stretch is a small constant
    (the stretch-3 certificate). *)

val exact_reference : ?bound:int -> Graph.t -> Graph.t -> int
(** The pre-kernel implementation: one scalar bounded BFS per removed edge.
    Kept as the oracle for the property tests and as the baseline of the
    kernel-comparison bench ([bench kernels]).  Same contract as
    {!exact_bounded} (default [bound] = [max_int], i.e. {!exact}). *)

val is_three_spanner : Graph.t -> Graph.t -> bool
(** [is_three_spanner g h] checks the paper's headline guarantee:
    every removed edge has a spanner detour of length ≤ 3. *)

val sampled_pairs :
  ?snapshots:Csr.t * Csr.t -> Prng.t -> Graph.t -> Graph.t -> samples:int -> float
(** Monte-Carlo pairwise stretch: max over [samples] random connected node
    pairs of [d_H / d_G]; a sanity cross-check of {!exact} at scale.
    [snapshots], when given, must be [(Graph.snapshot g, Graph.snapshot h)].
    The random draws are identical with or without [snapshots]. *)

val violations : Graph.t -> Graph.t -> bound:int -> (int * int) list
(** Removed edges whose spanner distance exceeds [bound] (weighted:
    [bound·w]) or that are disconnected — the counter-examples reported when
    a stretch certificate fails.  Sorted ascending (lexicographic on
    [(u, v)], [u < v]). *)

(** {2 Incremental certification}

    The churn seam: {!cert_create} runs the full grouped sweep once and
    caches each source group's verdict; after a mutation batch,
    {!violations_incremental} re-sweeps only the groups whose verdict could
    have changed.  Soundness of the dirty set: if the verdict on a removed
    edge [(u, v)] changed while its group did not, the smaller of the old
    and new [d_H(u, v)] is at most [bound·w(u,v)], and a shortest path
    realizing it uses a changed edge (otherwise that path exists on both
    sides and the verdicts agree).  The path weighs at most [bound·w], so
    with weights ≥ 1 it has at most [bound·w ≤ bound·w_max] edges, [w_max]
    being the heaviest removed edge.  Its prefix up to the {e first}
    changed edge survives in the new spanner, so [u] lies within
    [bound·w_max] hops of a touched node in the new spanner; on unit
    weights the radius is just [bound].  A changed group has a touched
    source.  One multi-seed hop-bounded BFS from the touched set therefore
    over-approximates every stale group, weighted or not, and the
    incremental result is byte-identical to a fresh {!violations}
    (qcheck-enforced).

    The certificate also caches each source's group presence and heaviest
    removed edge.  Since only a touched source's group can change, a
    refresh regroups the touched sources, takes [w_max] from that cache,
    and regroups only the dirty sources it sweeps: its cost follows the
    touched set and the dirty ball, not the size of [G]. *)

type cert
(** Cached per-source certificate for one [(g, h, bound)] triple.  Mutable:
    updated in place by {!violations_incremental}. *)

type inc_report = {
  inc_violations : (int * int) list;
      (** same contract (content and order) as {!violations} *)
  inc_swept : int;  (** source groups re-swept this call *)
  inc_groups : int;  (** total source groups (removed-edge sources) *)
  inc_dirty : int;  (** nodes within [bound·w_max] hops of the touched set *)
}

val cert_create : ?snapshot:Csr.t -> Graph.t -> Graph.t -> bound:int -> cert
(** Full sweep; caches every group's violation list and worst bounded
    detour.  Raises [Invalid_argument] if the node counts differ or
    [bound < 1].  [snapshot], when given, must be [Graph.snapshot h]. *)

val violations_incremental :
  cert -> ?snapshot:Csr.t -> Graph.t -> Graph.t -> touched:int array -> inc_report
(** [violations_incremental cert g h ~touched] refreshes [cert] after a
    mutation batch whose churned endpoints are [touched] (for an isolated
    node: the node and its former neighbours; for an added or deleted edge:
    both endpoints — in either graph).  Every node whose [g]- or
    [h]-incident edges changed since the last refresh must appear in
    [touched]; duplicates are fine.  Returns the violations of the {e
    current} [(g, h)] — byte-identical to {!violations}[ g h ~bound] — plus
    sweep accounting.  Raises [Invalid_argument] on node-count mismatch or
    out-of-range touched nodes. *)

val cert_bound : cert -> int
(** The [bound] the certificate was built with. *)

val cert_groups : cert -> int
(** Source-group count at the last refresh. *)

val cert_violations : cert -> (int * int) list
(** Cached violations as of the last refresh (no sweep; same contract as
    {!violations}). *)

val cert_stretch_bound : cert -> int
(** Worst bounded detour over all cached groups: equals
    {!exact_bounded}[ g h ~bound] as of the last refresh ([max_int] when
    some removed edge is unreachable within the bound, [1] when no edges
    are removed). *)
