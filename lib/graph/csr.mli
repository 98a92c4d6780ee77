(** Immutable compressed-sparse-row snapshot of a graph.

    BFS sweeps, spectral power iteration, and the routing measurements are the
    hot loops of the benchmark harness; they all run over this flat
    Bigarray-backed representation ({!Csr_store.t}) instead of the delta-log
    {!Graph.t}.  Kernels borrow rows in place: [xadj.{v} .. xadj.{v+1} - 1]
    indexes straight into [adjncy] with no copying. *)

type t = Graph.csr = private {
  n : int;  (** number of nodes *)
  xadj : Csr_store.ba;  (** offsets: neighbors of [v] live at [xadj.{v} .. xadj.{v+1} - 1] *)
  adjncy : Csr_store.ba;  (** concatenated neighbor lists, sorted ascending per node *)
  weights : Csr_store.ba option;
      (** per-arc positive weights aligned with [adjncy]; [None] = all 1 *)
  max_weight : int;  (** the heaviest arc weight; [1] when unweighted *)
}

val of_graph : Graph.t -> t
(** Build a fresh snapshot, bypassing the version cache ({!Graph.to_csr}).
    Neighbor lists are sorted ascending so that the snapshot is canonical for
    a given edge set.  Prefer {!snapshot} unless you specifically need a new
    physical copy. *)

val snapshot : Graph.t -> t
(** The memoized snapshot ({!Graph.snapshot}): rebuilt only when the graph's
    mutation {!Graph.version} has moved, otherwise the cached, physically
    equal snapshot is returned.  [csr.snapshot_hits] / [csr.snapshot_builds]
    metrics count the cache behavior. *)

val of_stream : ?m_hint:int -> n:int -> ((int -> int -> unit) -> unit) -> t
(** O(n + m) counting-sort construction from an edge stream, bypassing
    {!Graph.t} entirely ({!Csr_store.of_stream}).  The streaming path for
    million-node graphs. *)

val of_weighted_stream :
  ?m_hint:int -> n:int -> ((int -> int -> int -> unit) -> unit) -> t
(** Weighted streaming construction ({!Csr_store.of_weighted_stream}): each
    [emit u v w] records a positively weighted edge; duplicate edges keep the
    minimum weight. *)

val empty : int -> t
(** The edgeless snapshot on [n] nodes. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of (undirected) edges. *)

val degree : t -> int -> int
(** Degree of a node. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Iterate over the neighbors of a node, ascending. *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** Fold over the neighbors of a node, ascending. *)

val mem_edge : t -> int -> int -> bool
(** Edge membership by binary search over the sorted neighbor list:
    O(log deg). *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterate each edge exactly once as [(u, v)] with [u < v]. *)

val is_weighted : t -> bool
(** Whether the snapshot carries an explicit weight array. *)

val max_weight : t -> int
(** The heaviest arc weight, in O(1) ({!Csr_store.max_weight}): [1] on
    unweighted snapshots.  {!Bfs_batch.to_targets} sizes its ring of
    pending levels by it. *)

val edge_weight : t -> int -> int -> int
(** Weight of an edge (1 on unweighted snapshots); raises [Invalid_argument]
    if absent. *)

val iter_neighbors_w : t -> int -> (int -> int -> unit) -> unit
(** Like {!iter_neighbors} but passing each edge's weight (1 when
    unweighted). *)

val iter_edges_w : t -> (int -> int -> int -> unit) -> unit
(** Like {!iter_edges} but passing each edge's weight (1 when unweighted). *)
