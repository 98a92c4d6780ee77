(** The greedy distance-spanner baseline (Baswana–Sen is
    {!Baswana_sen_weighted}).

    It controls {e only} the distance stretch; the paper's motivation
    (Section 1, Figure 1) is precisely that such spanners can blow up
    congestion.  The benchmark harness runs it next to the DC constructions
    to exhibit that gap. *)

val greedy : Graph.t -> k:int -> Graph.t
(** Althöfer et al. greedy [(2k−1)]-spanner: scan the edges (normalized
    order) and keep an edge, at its weight in [g], iff the current spanner
    distance between its endpoints exceeds [2k−1] hops.  Size
    [O(n^{1+1/k})] by the girth argument; on unit weights the stretch is
    exactly certified by construction (the hop test does not bound a
    weighted stretch). *)
