(** Weighted single-source shortest paths over {!Csr.t} snapshots.

    This is the weighted counterpart of {!Bfs}: a binary-heap Dijkstra with a
    lazy-deletion heap held in a per-domain scratch arena ({!Bfs.Scratch}
    style), so the steady state allocates nothing beyond the returned
    distance rows.  On an unweighted snapshot every arc costs 1 and the
    results coincide exactly with {!Bfs} — the cross-kernel oracle the test
    suite checks.  All weights are positive by the {!Csr} invariant.

    The kernel dispatch rule: certificates run on the bit-parallel
    {!Bfs_batch.to_targets}, weighted or not, as long as the snapshot's
    heaviest arc fits its ring ({!Bfs_batch.ring_max}); heavier snapshots
    take {!to_targets} here, one source at a time.  Observability:
    [dijkstra.runs], [dijkstra.nodes_settled], [dijkstra.heap_peak],
    [dijkstra.scratch_reuses]. *)

val distances : Csr.t -> int -> int array
(** [distances g s] is the weighted distance from [s] to every node, [-1] for
    unreachable nodes.  O((n + m) log n). *)

val distances_bounded : Csr.t -> int -> bound:int -> int array
(** Like {!distances} but nodes at weighted distance [> bound] report [-1];
    the run stops as soon as the settled distance exceeds [bound]. *)

val distance : Csr.t -> int -> int -> int
(** [distance g u v] is the weighted distance from [u] to [v], [-1] if
    disconnected.  Settles only up to [v]'s distance. *)

val distance_bounded : Csr.t -> int -> int -> bound:int -> int
(** Like {!distance} but returns [-1] when the distance exceeds [bound]. *)

val to_targets : Csr.t -> int -> int array -> bound:int -> int array
(** [to_targets g s targets ~bound] is the weighted distance from [s] to
    each of [targets] — entry [i] is [(distances_bounded g s ~bound).(targets.(i))]
    — without an [n]-row: the run stops once every target is settled (or
    the bound passed), so it settles no more nodes than
    {!distances_bounded}, and it writes only the arena and the result.
    Duplicate targets and [s] itself are allowed; with no targets nothing
    runs.  Raises [Invalid_argument] if [s] or a target is out of range.
    The per-group path of the weighted certificates when the snapshot's
    arcs are too heavy for {!Bfs_batch.to_targets}' ring. *)
