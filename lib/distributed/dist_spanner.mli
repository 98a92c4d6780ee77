(** Corollary 3: O(1)-round distributed Algorithm 1 in the LOCAL model.

    Protocol (paper Section 7):

    + {b Round 0} — for each edge, its smaller endpoint flips the sampling
      coin (shared randomness: a per-edge coin derived from the seed, so the
      centralized reference makes identical choices) and tells the other
      endpoint whether the edge survived into [G'];
    + {b Rounds 1–3} — every node floods everything it has learned about [G]
      and [G'] to its neighbors; after [k] flood rounds a node knows every
      edge incident to its distance-[k] ball, so 3 rounds cover the
      3-hop information that the support and 3-detour tests read;
    + {b Round 4} — the smaller endpoint of every non-sampled edge decides
      locally whether the edge is [(a, b)]-supported (keep removed) or must
      be reinserted, including the repair rule (reinsert when no 2-/3-detour
      survived into [G']), and informs the other endpoint;
    + {b Round 5} — every non-owner receives its owner's decision.

    6 rounds total, independent of [n].  {!run} and {!reference} provably
    compute the same spanner (asserted by the test suite): locality is
    sufficient for Algorithm 1's decisions. *)

type result = {
  spanner : Graph.t;
  rounds : int;  (** LOCAL rounds executed (constant: 6) *)
  messages : int;  (** messages delivered by the simulator *)
  entries : int;  (** total edge-records carried by flood messages *)
}

val run : ?thresholds:int * int -> seed:int -> Graph.t -> result
(** Execute the protocol on the simulator.  [thresholds] is the support pair
    [(a, b)]; defaults to Algorithm 1's scaled defaults
    ([a = max 2 ⌈ln n⌉], [b = max 1 ⌊Δ/4⌋]). *)

val reference : ?thresholds:int * int -> seed:int -> Graph.t -> Graph.t
(** The centralized computation with the same per-edge coins — the spanner
    {!run} must reproduce exactly. *)
