(** Corollary 3: O(1)-round distributed Algorithm 1 in the LOCAL model.

    The rule is {!Regular_dc}'s, not a copy: every node runs
    {!Regular_dc.of_sample} on the edges it knows and keeps the decisions on
    the edges it owns (an edge is owned by its smaller endpoint).  The
    sampling coin of an edge is a public function of [(seed, u, v)] at
    {!Regular_dc.sampling_rate}, so any node can flip it for any edge it
    knows and messages carry edges, not coins.  Protocol (paper Section 7):

    + {b Round 0} — every node announces the edges it owns to its
      neighbors (an empty announce too);
    + {b Rounds 1–2} — two floods: every node forwards what it learned in
      the previous round.  Afterwards a node [u] knows every edge owned by
      a node within distance 3, hence every edge incident to its 2-ball;
    + {b Round 3} — [u] runs the pass on that knowledge, decides each edge
      [(u, v)] it owns and tells [v].  Those decisions read only edges of
      the 2-ball: the repair test on [(u, v)] asks for a path of length at
      most 3 in [H], and every edge of such a path touches [N[u]]; line 9
      on an edge [(p, q)] with [p ∈ N[u]] counts, for the neighbors [z] of
      one endpoint, the common neighbors of [z] and the other endpoint, so
      every edge it reads has an endpoint in [N[p] ∪ {q}], within distance
      2 of [u].  The pass's decisions on edges farther out may differ
      from Algorithm 1's; the owned decisions never read them;
    + {b Round 4} — every non-owner receives its owner's decision.

    5 rounds, independent of [n].  The spanner is, edge for edge,
    {!Regular_dc.of_sample} on [g] and the protocol's [G'] at the same
    [(a, b)] (asserted by the test suite). *)

type result = {
  spanner : Graph.t;
  sampled : Graph.t;  (** [G']: the edges whose coin came up *)
  rounds : int;  (** LOCAL rounds executed (constant: 5) *)
  messages : int;  (** messages delivered by the simulator *)
  entries : int;  (** total edge records carried by announce and flood messages *)
}

val run : ?thresholds:Regular_dc.thresholds -> seed:int -> Graph.t -> result
(** Execute the protocol on the simulator.  [thresholds] (default
    [Scaled]) resolve to the support pair [(a, b)] through
    {!Regular_dc.support_thresholds} on the whole of [g]: [n] and [Δ] are
    global knowledge, as in {!Regular_dc.build}.  Raises [Invalid_argument]
    on a weighted [g] (Algorithm 1 counts hops here; a weighted repair test
    can read paths beyond the 2-ball). *)
