(* Wireless-network scenario (paper Section 1.1, [12]): node congestion
   bounds packet latency and queue sizes, because a wireless node forwards
   roughly one packet per slot.

   A dense wireless backbone (every node hears many neighbors) wastes energy
   keeping all links scheduled.  We thin it to a DC-spanner and compare, for
   an all-to-all permutation of flows routed with the congestion-aware
   optimizer on both networks:

     - delivered-by         = simulated makespan under one-packet-per-node slots
     - max queue            = largest queue that actually formed
     - radio links to keep  = spanner edges

   Run with:  dune exec examples/wireless_backbone.exe *)

let describe name g routing =
  let n = Graph.n g in
  (* play the flows out packet-by-packet under node capacity 1 *)
  let s = Packet_sim.run ~n routing in
  Printf.printf
    "%-18s links=%-6d C=%-3d D=%-3d delivered-by=%-4d (lower bound %d)  max-queue=%-3d avg-latency=%.1f\n"
    name (Graph.m g) s.Packet_sim.congestion s.Packet_sim.dilation s.Packet_sim.makespan
    (Packet_sim.lower_bound s) s.Packet_sim.max_queue s.Packet_sim.avg_latency

let () =
  let rng = Prng.create 99 in
  let n = 216 in
  let backbone = Generators.random_regular rng n 43 in
  Printf.printf "dense wireless backbone: n=%d, %d radio links\n\n" n (Graph.m backbone);

  (* all-to-all flow pattern *)
  let problem = Problems.permutation rng backbone in
  Printf.printf "traffic: permutation, %d flows\n\n" (Array.length problem);

  (* route on the full backbone with the congestion-aware router *)
  let full_routing = Congestion_opt.route (Graph.snapshot backbone) rng problem in
  describe "full backbone" backbone full_routing;

  (* thin it to the DC-spanner and route the same flows *)
  let t = Regular_dc.build rng backbone in
  let spanner = t.Regular_dc.spanner in
  let sp_routing = Congestion_opt.route (Graph.snapshot spanner) rng problem in
  describe "DC-spanner" spanner sp_routing;

  (* the congestion-oblivious alternative at the same link budget *)
  let greedy = Classic.greedy backbone ~k:2 in
  let greedy_routing = Congestion_opt.route (Graph.snapshot greedy) rng problem in
  describe "greedy 3-spanner" greedy greedy_routing;

  Printf.printf
    "\nThe DC-spanner keeps ~%.0f%% of the links with a small constant increase in\n\
     delivery time; the greedy spanner is sparser still, but its hot nodes queue\n\
     several times more packets and delay delivery accordingly — exactly the\n\
     congestion stretch the paper controls.\n"
    (100.0 *. float_of_int (Graph.m spanner) /. float_of_int (Graph.m backbone))
