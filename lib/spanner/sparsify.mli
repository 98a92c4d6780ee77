(** Expander sparsifiers standing in for rows 2 and 3 of Table 1.

    Row 3 cites Koutis–Xu [16] (spectral sparsification, [O(n log n)] edges);
    row 2 cites Becchetti et al. [5] (constant average degree inside a
    [Δ = Ω(n)] expander).  On {e regular expanders} effective resistances are
    within constant factors of uniform, so uniform edge sampling at the
    corresponding rate reproduces both guarantees w.h.p.; a union-find repair
    pass reconnects the rare stray node.  The surviving expansion is measured
    spectrally by the harness rather than assumed (DESIGN.md §3.2–3.3). *)

type t = {
  spanner : Graph.t;
  p : float;  (** edge-keep probability used *)
  repair_edges : int;  (** edges added back by the connectivity repair *)
}

val spectral : ?c:float -> Prng.t -> Graph.t -> t
(** [16]-substitute: keep each edge with probability [min 1 (c·ln n / Δ)]
    ([c] defaults to 6.0), i.e. expected degree [Θ(log n)] and [Θ(n log n)]
    edges. *)

val bounded_degree : ?target:int -> Prng.t -> Graph.t -> t
(** [5]-substitute: keep each edge with probability [target/Δ] ([target]
    defaults to 16), i.e. [O(n)] edges and constant expected degree. *)
