(** Immutable compressed-sparse-row graphs: the flat storage every kernel
    reads.

    [n + 1] row offsets and [2m] concatenated neighbor lists held in [int]
    Bigarrays, laid out for sequential scans: BFS sweeps, spectral power
    iteration and the routing measurements borrow rows in place
    ([xadj.{v} .. xadj.{v+1} - 1] indexes straight into [adjncy], no
    copying).  Storage is exactly [(n + 1) + 2m] machine words outside the
    OCaml heap; the GC never scans it, but the runtime still counts its size
    when pacing major collections.  Rows are sorted ascending and free of
    duplicates and self-loops, which makes the structure canonical for a
    given edge set: two stores over the same edges are element-for-element
    equal.

    {!Graph.t} is a delta log over one of these; {!Graph.snapshot} commits
    the log by writing each row as it reads ({!of_rows}) and returns the
    new store.  {!of_stream}
    builds one in O(n + m) time by counting sort from an arbitrary edge
    stream (no per-node hash tables, no comparison sort), which keeps
    10^6-node builds at memory bandwidth. *)

type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Off-heap [int] array; element [i] reads as [a.{i}]. *)

type t = private {
  n : int;  (** number of nodes *)
  xadj : ba;  (** offsets: neighbors of [v] live at [xadj.{v} .. xadj.{v+1} - 1] *)
  adjncy : ba;  (** concatenated neighbor lists, sorted ascending per node *)
  weights : ba option;
      (** per-arc positive weights aligned with [adjncy]; [None] means every
          edge has weight 1 (the unweighted stores are bit-identical to what
          they were before weights existed) *)
  max_weight : int;
      (** the heaviest arc weight, recorded when the store is built: [1]
          when [weights = None] or there are no arcs *)
}

val empty : int -> t
(** [empty n] is the edgeless store on [n] nodes. *)

val of_stream : ?m_hint:int -> n:int -> ((int -> int -> unit) -> unit) -> t
(** [of_stream ~n produce] runs [produce emit] and builds the CSR from every
    [emit u v] call in O(n + m): arcs are buffered (doubling growth, so pass
    [~m_hint] when the edge count is known to avoid regrows), counting-sorted
    by destination, and transpose-scattered into sorted rows.  Emitting an
    edge once suffices; duplicates (either orientation) and self-loops are
    dropped.  The result has [weights = None].  Raises [Invalid_argument] if
    an endpoint is out of range. *)

val of_weighted_stream :
  ?m_hint:int -> n:int -> ((int -> int -> int -> unit) -> unit) -> t
(** [of_weighted_stream ~n produce] is {!of_stream} for weighted edges: each
    [emit u v w] records edge [(u, v)] with positive integer weight [w],
    carried through the same counting-sort scatter.  When duplicate edges are
    emitted (either orientation), the minimum weight wins.  Raises
    [Invalid_argument] on out-of-range endpoints or [w < 1].  The result
    always has [is_weighted t = true], even if every emitted weight is 1. *)

val is_weighted : t -> bool
(** Whether the store carries an explicit weight array. *)

val max_weight : t -> int
(** The heaviest arc weight, in O(1): recorded at build time, after the
    minimum-weight dedupe of {!of_weighted_stream} (so a heavier parallel
    copy that lost to a lighter one does not count).  [1] on unweighted and
    arc-less stores.  {!Bfs_batch.to_targets} sizes its ring of pending
    levels by it. *)

val n : t -> int
(** Number of nodes. *)

val m : t -> int
(** Number of undirected edges. *)

val degree : t -> int -> int
(** Row length of a node.  Raises [Invalid_argument] out of range. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Iterate a node's neighbors in ascending order, without copying. *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a
(** Fold over a node's neighbors in ascending order. *)

val mem_edge : t -> int -> int -> bool
(** Edge membership by binary search over the sorted row: O(log deg). *)

val edge_weight : t -> int -> int -> int
(** Weight of an edge (1 on unweighted stores), by the same binary search as
    {!mem_edge}.  Raises [Invalid_argument] if the edge is absent. *)

val iter_neighbors_w : t -> int -> (int -> int -> unit) -> unit
(** Like {!iter_neighbors} but passing each neighbor's edge weight (1 when
    the store is unweighted). *)

val iter_edges : t -> (int -> int -> unit) -> unit
(** Iterate each edge once as [(u, v)] with [u < v], ascending
    lexicographically. *)

val iter_edges_w : t -> (int -> int -> int -> unit) -> unit
(** Like {!iter_edges} but passing each edge's weight (1 when unweighted). *)

(** {2 Tombstoned rows}

    {!Graph.t} hides a deleted base edge by marking its two arcs in a byte
    array with one byte per arc of [adjncy] (nonzero = deleted), indexed by
    {!find_arc}.  The scans below skip marked arcs in place, and {!of_rows}
    builds the store a commit writes. *)

val find_arc : t -> int -> int -> int
(** [find_arc t u v] is the index into [adjncy] of [v] in [u]'s row, by the
    binary search of {!mem_edge}, or [-1] if the edge is absent.  Raises
    [Invalid_argument] out of range. *)

val iter_live_neighbors : t -> dead:Bytes.t -> int -> (int -> unit) -> unit
(** [iter_live_neighbors t ~dead v f] is {!iter_neighbors} skipping every
    arc [i] with [Bytes.get dead i <> '\000']: the row in ascending order
    minus its marked arcs.  Raises [Invalid_argument] out of range or unless
    [dead] holds one byte per arc. *)

val iter_live_neighbors_w : t -> dead:Bytes.t -> int -> (int -> int -> unit) -> unit
(** Like {!iter_live_neighbors} but passing each weight, as
    {!iter_neighbors_w}. *)

val of_rows : weighted:bool -> int array -> (int -> (int -> int -> unit) -> unit) -> t
(** [of_rows ~weighted deg row] is the store on [Array.length deg] nodes
    whose row [v] holds the [deg.(v)] arcs that [row v emit] passes to
    [emit neighbour weight], in the order given, which must be ascending;
    this is how {!Graph.snapshot} writes a graph's rows as its reads return
    them.  The result carries a weight lane exactly when [weighted], and its
    [max_weight] is the heaviest weight written.  It costs O(n + m) and
    allocates only the new store.  Raises [Invalid_argument] if a degree is
    negative or a row emits more or fewer arcs than its degree. *)
