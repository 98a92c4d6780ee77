(** The [(α, β)]-DC-spanner interface (Definition 3) and its measurement.

    A DC-spanner construction bundles the spanner graph [H] with a
    {e matching router}: a procedure that, given a matching routing problem
    whose requests are edges of [G], produces a substitute routing on [H].
    Theorem 1 then lifts the matching router to arbitrary routings through
    the Algorithm 2 decomposition ({!route_general}), multiplying the
    congestion by [O(log n)].

    Every construction describes its matching router the same way: one path
    distribution per request ({!type:paths}), which the single sampler
    {!make} draws from.  The draws are independent, so these are exactly the
    per-request path probabilities Lemmas 7 and 17 reason about.

    The measurement helpers below are what the benchmark harness reports:
    because a matching of [G]-edges has optimal congestion exactly 1, the
    congestion of the substitute routing {e is} the congestion stretch for
    that problem. *)

type paths =
  | Direct  (** the request is an edge of [H]: route it as [[|u; v|]], drawing nothing *)
  | Uniform of Routing.path array
      (** a uniform pick among candidate paths ([Prng.pick]: one draw, even
          from a one-element array); a candidate that starts at the request's
          second endpoint is reversed.  [Uniform [||]] takes the
          deterministic BFS shortest path in [H] instead, drawing nothing *)
  | Shortest
      (** the uniform-parent walk of {!Bfs.random_shortest_path} in [H]: one
          draw per hop, so a request that is an edge of [H] still draws once *)

type t = {
  name : string;  (** construction label used in reports *)
  graph : Graph.t;  (** the original graph [G] *)
  spanner : Graph.t;  (** the spanner [H ⊆ G] *)
  paths : int -> int -> paths;
      (** the distribution of the substitute path for request [(u, v)], an
          edge of [G] *)
  route_matching : Prng.t -> (int * int) array -> Routing.path array;
      (** substitute routing on [H] for a matching: one draw from [paths]
          per request, in order (pairs oriented first→second; returned
          paths match endpoints). *)
}

val make : name:string -> graph:Graph.t -> spanner:Graph.t -> (int -> int -> paths) -> t
(** The matching router that samples every request from the given
    distribution.  It takes [H]'s CSR snapshot when it is made, for the
    draws that walk [H] ([Shortest] and [Uniform [||]]), so [H] must not
    change once the router exists.  Raises [Invalid_argument] on a request
    that [H] disconnects. *)

val of_sp_router : name:string -> graph:Graph.t -> spanner:Graph.t -> t
(** Wrap a plain spanner with the randomized-shortest-path matching router:
    {!make} with [Shortest] on every request, the router used for the
    distance-spanner baselines and the [5]/[16]-substitutes. *)

val route_general : t -> Prng.t -> Routing.routing -> Decompose.result
(** Theorem 1: decompose the routing into matchings, route each on [H], and
    splice.  The result's [stats] expose the Lemma 21/23 quantities. *)

type matching_report = {
  trials : int;
  mean_congestion : float;  (** average over trials of [C(P')] *)
  max_congestion : int;  (** worst trial *)
  max_mean_node_load : float;
      (** max over nodes of the node's load averaged across trials — the
          empirical version of Theorem 2's "expected node congestion"
          ([E[T_w] ≤ 1 + o(1)] for matchings, proof of Lemma 7) *)
  mean_path_len : float;  (** average substitute path length *)
  max_path_len : int;  (** worst substitute path length = distance stretch on the workload *)
}

val measure_matching : t -> Prng.t -> trials:int -> matching_report
(** Route random maximal edge-matchings of [G] on [H].  Optimal congestion of
    each problem is 1, so [max_congestion] is a lower bound certificate of
    the spanner's congestion stretch and [mean_congestion] estimates the
    expected stretch (paper Theorem 2 / Lemma 17 regime).  Raises
    [Invalid_argument] when [trials < 0]. *)

type general_report = {
  problem_size : int;
  base_congestion : int;  (** congestion of the routing in [G] *)
  spanner_congestion : int;  (** congestion of the substitute in [H] *)
  stretch : float;  (** ratio *)
  dist_stretch : float;  (** max path-length stretch of the substitute *)
  decompose : Decompose.stats;
}

val measure_general : t -> Prng.t -> Routing.routing -> general_report
(** Measure the congestion stretch of an arbitrary routing in [G] (e.g. a
    shortest-path permutation routing): routes it on [H] via
    {!route_general} and compares congestions. *)
