(** The greedy distance-spanner baseline (Baswana–Sen is
    {!Baswana_sen_weighted}).

    It controls {e only} the distance stretch; the paper's motivation
    (Section 1, Figure 1) is precisely that such spanners can blow up
    congestion.  The benchmark harness runs it next to the DC constructions
    to exhibit that gap. *)

val greedy : Graph.t -> k:int -> Graph.t
(** Althöfer et al. greedy [(2k−1)]-spanner: scan the edges in
    nondecreasing [(weight, u, v)] order and keep [(u, v)], at its weight in
    [g], iff the current spanner distance [d_H(u, v)] exceeds
    [(2k−1)·w(u, v)].  Every edge of [g] then has stretch at most [2k−1]
    under [g]'s weights, by construction; size [O(n^{1+1/k})] by the girth
    argument.  On unit weights the order is {!Graph.iter_edges}'s and the
    test counts hops. *)
