(** Sustained-churn soak harness: a live spanner under continuous faults and
    traffic.

    Where {!Fault_sim} + {!Repair} play one plan and heal once, the soak
    loop keeps the paper's distance-stretch guarantee (Definition 1 /
    Theorem 2's [alpha]) as an {e invariant over time}: every batch of churn
    events is followed by incremental repair and re-certification via
    {!Stretch.violations_incremental}, while degraded-mode packet traffic
    keeps flowing through the spanner the whole run.

    Per batch: (1) routing requests are sampled inside the current
    spanner's components and routed by {!Sp_routing.route_random}; (2) the
    batch's destructive events, projected to a {!Fault_plan}, strike that
    in-flight traffic mid-simulation ({!Fault_sim.run}); (3) the batch is
    committed to the base graph and the spanner; (4) the healer re-adds
    every violating removed edge and re-certifies, sweeping only the dirty
    source groups.  Re-adding violations also restores per-component
    connectivity: a base-graph edge crossing two spanner components is
    itself a violation.

    Determinism: one seed drives independent SplitMix64 streams for events
    and traffic, {!Fault_sim} consumes no randomness, and {!to_json}
    excludes wall-clock readings — so same-seed runs are byte-identical
    (asserted by CI).  Wall-clock repair latency and certification
    staleness go to the [churn.repair_us] / [churn.cert_staleness_us]
    Metrics histograms; progress is logged as [churn.batch] /
    [churn.uncertified] events. *)

type config = {
  events : int;  (** total churn events to generate (>= 1) *)
  batch : int;  (** events per batch (>= 1) *)
  seed : int;
  alpha : int;  (** stretch bound to maintain (>= 1) *)
  kind : Churn_gen.kind;
  requests : int;  (** routing requests sampled per batch (>= 0) *)
  timeout : int;  (** {!Fault_sim} retransmission timeout *)
  max_attempts : int;  (** {!Fault_sim} retransmission budget *)
}

val default : config
(** 1000 uniform events in batches of 50, seed 1, alpha 3, 16 requests per
    batch, Fault_sim defaults. *)

type batch_stats = {
  bs_round : int;  (** 1-based batch index *)
  bs_events : int;  (** events generated for this batch *)
  bs_applied : int;  (** events that actually changed a graph *)
  bs_readded : int;  (** edges the healer re-added *)
  bs_swept : int;  (** source groups re-swept (all healing passes) *)
  bs_groups : int;
      (** source groups a from-scratch certifier would have swept, summed
          over the same passes — [bs_swept <= bs_groups] *)
  bs_dirty : int;  (** dirty-set sizes summed over healing passes *)
  bs_delivered : int;
  bs_dropped : int;
  bs_retransmits : int;
  bs_reroutes : int;
  bs_makespan : int;
  bs_traffic_stretch : float;
      (** worst routed-path length over base-graph distance, pre-fault *)
  bs_dist_stretch : int;  (** {!Stretch.cert_stretch_bound} after healing *)
  bs_certified : bool;  (** no violation remains (implies stretch <= alpha) *)
  bs_m_graph : int;  (** base-graph edges after the batch *)
  bs_m_spanner : int;  (** spanner edges after the batch *)
}

type report = {
  r_kind : string;
  r_seed : int;
  r_alpha : int;
  r_events : int;
  r_batch : int;
  r_requests : int;
  r_batches : batch_stats list;  (** chronological *)
  r_events_generated : int;
  r_events_applied : int;
  r_edges_readded : int;  (** incl. any initial heal of an uncertified input *)
  r_swept : int;
  r_groups_total : int;  (** sum of per-batch group counts (sweep-saving denominator) *)
  r_delivered : int;
  r_dropped : int;
  r_retransmits : int;
  r_reroutes : int;
  r_certified_batches : int;
  r_batch_count : int;
  r_final_stretch : int;
      (** closing audit: full non-incremental {!Stretch.exact} of the end
          state ([max_int] on a disconnected removed edge) *)
  r_final_certified : bool;
      (** [r_final_stretch <= alpha] and the end spanner is a subgraph of
          the end graph at its weights ({!Graph.is_subgraph}): the healer
          re-adds every edge at its weight in [g] *)
  r_m_graph_start : int;
  r_m_graph_end : int;
  r_m_spanner_start : int;
  r_m_spanner_end : int;
}

val run :
  ?on_batch:(batch_stats -> unit) -> config -> graph:Graph.t -> spanner:Graph.t -> report
(** [run config ~graph ~spanner] soaks copies of the inputs (the arguments
    are not mutated); [on_batch] fires after each batch, in order.  An
    uncertified input spanner is healed before the first batch.  Raises
    [Invalid_argument] on bad config bounds, node-count mismatch, or a
    [spanner] that is not a subgraph of [graph] ({!Graph.is_subgraph}, so
    weights must agree). *)

val to_json : report -> string
(** Deterministic [dcs-soak/1] JSON document (trailing newline): config
    echo, totals, final audit, and the per-batch series.  Contains no
    wall-clock values, so same-seed reports are byte-identical. *)
