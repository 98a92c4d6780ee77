(* Churn machinery tests: seeded event generators, the incremental
   certification seam (qcheck oracle against the full sweep, plus the
   strictly-fewer-groups locality guarantee), and the soak engine's
   certified-after-every-batch + same-seed-byte-identical contracts. *)

let check = Alcotest.check

let no_loads g = Array.make (Graph.n g) 0

(* ---- generators ---- *)

let test_gen_deterministic () =
  let g = Generators.random_regular (Prng.create 5) 60 8 in
  let h = Classic.greedy g ~k:2 in
  let mg = Graph.m g and mh = Graph.m h in
  List.iter
    (fun kind ->
      let ev seed =
        Churn_gen.generate kind (Prng.create seed) ~g ~h ~loads:(no_loads g) ~count:40
      in
      check Alcotest.bool
        (Churn_gen.kind_name kind ^ " same seed same events")
        true (ev 3 = ev 3);
      check Alcotest.bool
        (Churn_gen.kind_name kind ^ " inputs not mutated")
        true
        (Graph.m g = mg && Graph.m h = mh))
    [ Churn_gen.Uniform; Churn_gen.Adversarial; Churn_gen.Targeted ]

let test_gen_events_applicable () =
  (* drawn against scratch state: every event changes a graph when applied *)
  let g = Generators.random_regular (Prng.create 6) 50 6 in
  let h = Classic.greedy g ~k:2 in
  let events =
    Churn_gen.generate Churn_gen.Uniform (Prng.create 9) ~g ~h ~loads:(no_loads g) ~count:60
  in
  let ap = Churn_gen.apply ~g ~h events in
  check Alcotest.int "all events applied"
    (List.length events)
    (ap.Churn_gen.ap_added + ap.Churn_gen.ap_deleted + ap.Churn_gen.ap_isolated)

let test_gen_kind_names () =
  List.iter
    (fun kind ->
      check Alcotest.bool "round trip" true
        (Churn_gen.kind_of_string (Churn_gen.kind_name kind) = Some kind))
    [ Churn_gen.Uniform; Churn_gen.Adversarial; Churn_gen.Targeted ];
  check Alcotest.bool "unknown rejected" true (Churn_gen.kind_of_string "cosmic" = None)

(* events rendered canonically, so a digest pins the exact draw sequence *)
let event_string = function
  | Churn_gen.Add_edge (u, v) -> Printf.sprintf "+%d-%d" u v
  | Churn_gen.Del_edge (u, v) -> Printf.sprintf "x%d-%d" u v
  | Churn_gen.Isolate v -> Printf.sprintf "i%d" v

let test_gen_pinned_digest () =
  (* g0 carries uncommitted deletions; the digest of every kind's events at
     seeds 1-3 was recorded with the draws made from a sorted copy of the
     edge array *)
  let g0 = Generators.random_regular (Prng.create 21) 80 10 in
  let g = Graph.of_csr (Graph.snapshot g0) in
  let h = Classic.greedy g0 ~k:2 in
  let i = ref 0 in
  Graph.iter_edges g0 (fun u v ->
      incr i;
      if !i mod 13 = 0 then begin
        ignore (Graph.remove_edge g u v);
        ignore (Graph.remove_edge h u v)
      end);
  let loads = Array.init (Graph.n g) (fun v -> (v * 7) mod 13) in
  let events =
    List.concat_map
      (fun kind ->
        List.concat_map
          (fun seed -> Churn_gen.generate kind (Prng.create seed) ~g ~h ~loads ~count:30)
          [ 1; 2; 3 ])
      [ Churn_gen.Uniform; Churn_gen.Adversarial; Churn_gen.Targeted ]
  in
  check Alcotest.int "events" 270 (List.length events);
  check Alcotest.string "event digest" "28b02c5e21d7d1ffadbb0567033fad70"
    (Digest.to_hex (Digest.string (String.concat " " (List.map event_string events))))

let test_apply_touched_includes_isolate_neighbors () =
  let g = Generators.cycle 6 in
  let h = Graph.copy g in
  let ap = Churn_gen.apply ~g ~h [ Churn_gen.Isolate 2 ] in
  check
    Alcotest.(list int)
    "node and former neighbours touched" [ 1; 2; 3 ]
    (Array.to_list ap.Churn_gen.ap_touched);
  check Alcotest.int "isolations counted" 1 ap.Churn_gen.ap_isolated;
  check Alcotest.(list int) "edges cut" [] (Graph.neighbors g 2)

let test_apply_rejects_bad_events () =
  let expects_invalid name f =
    check Alcotest.bool name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  let g () = Generators.cycle 4 in
  expects_invalid "out of range" (fun () ->
      Churn_gen.apply ~g:(g ()) ~h:(g ()) [ Churn_gen.Isolate 9 ]);
  expects_invalid "self loop" (fun () ->
      Churn_gen.apply ~g:(g ()) ~h:(g ()) [ Churn_gen.Add_edge (1, 1) ])

let test_to_fault_plan_projection () =
  let network = Generators.cycle 5 in
  let plan =
    Churn_gen.to_fault_plan ~round:2 ~network
      [
        Churn_gen.Add_edge (0, 2);
        (* in the network: becomes an edge fault *)
        Churn_gen.Del_edge (1, 2);
        (* not a network link: no fault, traffic cannot lose it *)
        Churn_gen.Del_edge (0, 3);
        Churn_gen.Isolate 4;
      ]
  in
  check Alcotest.int "edge faults" 1 (Fault_plan.edge_faults plan);
  check Alcotest.int "node faults" 1 (Fault_plan.node_faults plan);
  check Alcotest.int "strikes at round 2" 2 (Fault_plan.last_round plan)

(* ---- incremental certification ---- *)

let test_cert_create_matches_full () =
  let g = Generators.random_regular (Prng.create 7) 60 8 in
  let h = Classic.greedy g ~k:2 in
  let cert = Stretch.cert_create g h ~bound:3 in
  check Alcotest.bool "violations match" true
    (Stretch.cert_violations cert = Stretch.violations g h ~bound:3);
  check Alcotest.bool "stretch matches" true
    (Stretch.cert_stretch_bound cert = Stretch.exact_bounded g h ~bound:3);
  check Alcotest.int "bound recorded" 3 (Stretch.cert_bound cert)

let test_cert_create_rejects () =
  let expects_invalid name f =
    check Alcotest.bool name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  expects_invalid "node counts differ" (fun () ->
      Stretch.cert_create (Generators.cycle 5) (Generators.cycle 4) ~bound:3);
  expects_invalid "bound < 1" (fun () ->
      Stretch.cert_create (Generators.cycle 5) (Generators.cycle 5) ~bound:0);
  expects_invalid "touched out of range" (fun () ->
      let g = Generators.cycle 5 in
      let cert = Stretch.cert_create g g ~bound:3 in
      Stretch.violations_incremental cert g g ~touched:[| 7 |])

(* h = g with every 5th edge removed: many scattered source groups *)
let every_fifth_removed g =
  let h = Graph.copy g in
  let i = ref 0 in
  Graph.iter_edges g (fun u v ->
      incr i;
      if !i mod 5 = 0 then ignore (Graph.remove_edge h u v));
  h

let test_incremental_sweeps_strictly_fewer () =
  (* large-diameter tori, localized single-edge churn: the dirty ball of
     radius bound·w_max covers a corner of the graph, so the incremental
     certifier must skip most source groups while agreeing with the full
     sweep — on unit weights and on weights in [1, 2] *)
  List.iter
    (fun (name, g) ->
      let h = every_fifth_removed g in
      let cert = Stretch.cert_create g h ~bound:3 in
      let ap = Churn_gen.apply ~g ~h [ Churn_gen.Del_edge (0, 1) ] in
      let r = Stretch.violations_incremental cert g h ~touched:ap.Churn_gen.ap_touched in
      check Alcotest.bool (name ^ ": many groups") true (r.Stretch.inc_groups > 20);
      check Alcotest.bool
        (Printf.sprintf "%s: swept %d strictly fewer than %d groups" name r.Stretch.inc_swept
           r.Stretch.inc_groups)
        true
        (r.Stretch.inc_swept < r.Stretch.inc_groups);
      check Alcotest.bool (name ^ ": agrees with full sweep") true
        (r.Stretch.inc_violations = Stretch.violations g h ~bound:3))
    [
      ("unit torus", Generators.torus 12 12);
      ("weighted torus", Generators.weighted_torus (Prng.create 5) 16 16 ~w_max:2);
    ]

let test_weighted_dirty_radius () =
  (* 8-cycle whose edge (0,7) weighs 7: its detour 0-1-...-7 in h is 7 hops
     long, so cutting (4,5) — 4 hops from node 0 — turns it into a
     violation.  A dirty radius of [bound] = 3 would miss source 0; the
     radius bound·w_max = 21 must catch it. *)
  let g = Graph.of_weighted_edges 8 ((0, 7, 7) :: List.init 7 (fun i -> (i, i + 1, 1))) in
  let h = Graph.copy g in
  ignore (Graph.remove_edge h 0 7);
  let cert = Stretch.cert_create g h ~bound:3 in
  check Alcotest.(list (pair int int)) "certified before the cut" [] (Stretch.cert_violations cert);
  ignore (Graph.remove_edge h 4 5);
  let r = Stretch.violations_incremental cert g h ~touched:[| 4; 5 |] in
  let want = Stretch.violations g h ~bound:3 in
  check Alcotest.(list (pair int int)) "full sweep" [ (0, 7); (4, 5) ] want;
  check Alcotest.(list (pair int int)) "incremental = full" want r.Stretch.inc_violations;
  check Alcotest.int "stretch bound" (Stretch.exact_bounded g h ~bound:3)
    (Stretch.cert_stretch_bound cert)

let prop_incremental_oracle =
  QCheck.Test.make ~name:"violations_incremental == full violations under churn" ~count:25
    QCheck.(pair small_int (int_range 1 5))
    (fun (seed, nbatches) ->
      let bound = 3 in
      (* one unit-weight and one weighted input per case; the unit-weight
         one draws its events first, from the same stream as ever *)
      let agrees (g, h) rng =
        let cert = Stretch.cert_create g h ~bound in
        let ok = ref (Stretch.cert_violations cert = Stretch.violations g h ~bound) in
        for _ = 1 to nbatches do
          let events =
            Churn_gen.generate Churn_gen.Uniform rng ~g ~h ~loads:(no_loads g) ~count:6
          in
          let ap = Churn_gen.apply ~g ~h events in
          let r = Stretch.violations_incremental cert g h ~touched:ap.Churn_gen.ap_touched in
          ok :=
            !ok
            && r.Stretch.inc_violations = Stretch.violations g h ~bound
            && r.Stretch.inc_swept <= r.Stretch.inc_groups
            && Stretch.cert_stretch_bound cert = Stretch.exact_bounded g h ~bound
        done;
        !ok
      in
      let regular =
        let g = Generators.random_regular (Prng.create 17) 48 6 in
        (g, Classic.greedy g ~k:2)
      in
      let weighted =
        let g = Generators.weighted_torus (Prng.create 17) 12 12 ~w_max:2 in
        (g, every_fifth_removed g)
      in
      let rng = Prng.create (100 + seed) in
      agrees regular rng && agrees weighted rng)

(* The bookkeeping of a certifier that regroups all of G on every call:
   the group count, the dirty ball of radius bound·w_max around the
   touched nodes in h (w_max over every removed edge) and the group
   sources inside it.  The incremental certificate caches the groups, so
   its report must still equal this. *)
let full_regroup_bookkeeping g h ~bound ~touched =
  let n = Graph.n g in
  let source = Array.make n false and wmax = ref 1 in
  Graph.iter_edges g (fun u v ->
      if not (Graph.mem_edge h u v) then begin
        source.(u) <- true;
        wmax := max !wmax (Graph.edge_weight g u v)
      end);
  let hops = Array.make n (-1) and queue = Queue.create () in
  Array.iter
    (fun v ->
      if hops.(v) < 0 then begin
        hops.(v) <- 0;
        Queue.add v queue
      end)
    touched;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    if hops.(v) < bound * !wmax then
      Graph.iter_neighbors h v (fun u ->
          if hops.(u) < 0 then begin
            hops.(u) <- hops.(v) + 1;
            Queue.add u queue
          end)
  done;
  let count p = Array.fold_left (fun c b -> if b then c + 1 else c) 0 (Array.init n p) in
  ( count (fun v -> source.(v)),
    count (fun v -> source.(v) && hops.(v) >= 0),
    count (fun v -> hops.(v) >= 0) )

let prop_incremental_bookkeeping =
  QCheck.Test.make ~name:"incremental groups/swept/dirty == full-regroup bookkeeping"
    ~count:25
    QCheck.(pair small_int (int_range 1 5))
    (fun (seed, nbatches) ->
      let bound = 3 in
      let agrees (g, h) rng =
        let cert = Stretch.cert_create g h ~bound in
        let ok = ref true in
        for _ = 1 to nbatches do
          let events =
            Churn_gen.generate Churn_gen.Uniform rng ~g ~h ~loads:(no_loads g) ~count:6
          in
          let touched = (Churn_gen.apply ~g ~h events).Churn_gen.ap_touched in
          let r = Stretch.violations_incremental cert g h ~touched in
          let groups, swept, dirty = full_regroup_bookkeeping g h ~bound ~touched in
          ok :=
            !ok
            && r.Stretch.inc_groups = groups
            && Stretch.cert_groups cert = groups
            && r.Stretch.inc_swept = swept
            && r.Stretch.inc_dirty = dirty
            && r.Stretch.inc_violations = Stretch.violations g h ~bound
        done;
        !ok
      in
      let regular =
        let g = Generators.random_regular (Prng.create (17 + seed)) 48 6 in
        (g, Classic.greedy g ~k:2)
      in
      let weighted =
        let g = Generators.weighted_torus (Prng.create (17 + seed)) 10 10 ~w_max:3 in
        (g, every_fifth_removed g)
      in
      let rng = Prng.create (200 + seed) in
      agrees regular rng && agrees weighted rng)

(* ---- soak engine ---- *)

let soak_inputs seed =
  let g = Generators.random_regular (Prng.create seed) 100 12 in
  let h = Classic.greedy g ~k:2 in
  (g, h)

let test_soak_certified_every_batch () =
  (* the acceptance run: >= 1000 churn events at quick scale, certified
     (dist_stretch <= alpha) after every batch *)
  let g, h = soak_inputs 21 in
  let config = { Soak.default with events = 1000; batch = 50; seed = 77 } in
  let r = Soak.run config ~graph:g ~spanner:h in
  check Alcotest.int "1000 events generated" 1000 r.Soak.r_events_generated;
  check Alcotest.int "every batch certified" r.Soak.r_batch_count r.Soak.r_certified_batches;
  List.iter
    (fun b ->
      check Alcotest.bool
        (Printf.sprintf "batch %d certified with stretch <= alpha" b.Soak.bs_round)
        true
        (b.Soak.bs_certified && b.Soak.bs_dist_stretch <= config.Soak.alpha))
    r.Soak.r_batches;
  check Alcotest.bool "final full audit certified" true r.Soak.r_final_certified;
  check Alcotest.bool "inputs not mutated" true
    (Graph.m g = 600 && Graph.is_subgraph h ~of_:g)

(* The healer re-adds each edge at its weight in G.  On a weighted torus
   whose spanner misses every fifth edge, ~200 edges are re-added; at weight
   1 they would read certified batch after batch while H drifted lighter
   than G, which the closing audit's subgraph test catches. *)
let test_soak_weighted_heal () =
  let g = Generators.weighted_torus (Prng.create 1) 20 20 ~w_max:3 in
  let config = { Soak.default with events = 200; batch = 10; seed = 7 } in
  let r = Soak.run config ~graph:g ~spanner:(every_fifth_removed g) in
  check Alcotest.bool "edges re-added" true (r.Soak.r_edges_readded > 100);
  check Alcotest.int "every batch certified" r.Soak.r_batch_count r.Soak.r_certified_batches;
  check Alcotest.bool "final audit certified" true r.Soak.r_final_certified

let test_soak_deterministic () =
  let run () =
    let g, h = soak_inputs 22 in
    Soak.run { Soak.default with events = 300; batch = 30; seed = 5 } ~graph:g ~spanner:h
  in
  let a = run () and b = run () in
  check Alcotest.bool "same-seed reports identical" true (a = b);
  check Alcotest.bool "same-seed json byte-identical" true (Soak.to_json a = Soak.to_json b)

let test_soak_traffic_accounting () =
  let g, h = soak_inputs 23 in
  let config = { Soak.default with events = 200; batch = 20; seed = 9; requests = 8 } in
  let r = Soak.run config ~graph:g ~spanner:h in
  check Alcotest.int "every request resolved"
    (r.Soak.r_batch_count * config.Soak.requests)
    (r.Soak.r_delivered + r.Soak.r_dropped);
  List.iter
    (fun b ->
      check Alcotest.bool "traffic stretch >= 1" true (b.Soak.bs_traffic_stretch >= 1.0))
    r.Soak.r_batches

let test_soak_rejects () =
  let expects_invalid name f =
    check Alcotest.bool name true (try ignore (f ()); false with Invalid_argument _ -> true)
  in
  let g, h = soak_inputs 24 in
  expects_invalid "events < 1" (fun () ->
      Soak.run { Soak.default with events = 0 } ~graph:g ~spanner:h);
  expects_invalid "batch < 1" (fun () ->
      Soak.run { Soak.default with batch = 0 } ~graph:g ~spanner:h);
  expects_invalid "non-subgraph spanner" (fun () ->
      Soak.run Soak.default ~graph:h ~spanner:g);
  expects_invalid "node counts differ" (fun () ->
      Soak.run Soak.default ~graph:g ~spanner:(Generators.cycle 5))

let test_soak_json_shape () =
  let g, h = soak_inputs 25 in
  let r = Soak.run { Soak.default with events = 100; batch = 25 } ~graph:g ~spanner:h in
  let js = Soak.to_json r in
  List.iter
    (fun key ->
      let re = Printf.sprintf "\"%s\"" key in
      let rec find i =
        i + String.length re <= String.length js
        && (String.sub js i (String.length re) = re || find (i + 1))
      in
      check Alcotest.bool (Printf.sprintf "json has %S" key) true (find 0))
    [
      "dcs-soak/1"; "plan"; "seed"; "alpha"; "totals"; "swept"; "groups"; "batches";
      "dist_stretch"; "certified"; "traffic_stretch";
    ]

let prop_soak_deterministic =
  QCheck.Test.make ~name:"soak reports are pure functions of the seed" ~count:5
    QCheck.small_int
    (fun seed ->
      let run () =
        let g = Generators.torus 8 8 in
        let h = Classic.greedy g ~k:2 in
        Soak.run
          { Soak.default with events = 60; batch = 10; seed; requests = 4 }
          ~graph:g ~spanner:h
      in
      Soak.to_json (run ()) = Soak.to_json (run ()))

let () =
  let q = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "churn"
    [
      ( "generators",
        [
          Alcotest.test_case "deterministic" `Quick test_gen_deterministic;
          Alcotest.test_case "events applicable" `Quick test_gen_events_applicable;
          Alcotest.test_case "kind names" `Quick test_gen_kind_names;
          Alcotest.test_case "pinned draws" `Quick test_gen_pinned_digest;
          Alcotest.test_case "touched includes neighbours" `Quick
            test_apply_touched_includes_isolate_neighbors;
          Alcotest.test_case "rejects bad events" `Quick test_apply_rejects_bad_events;
          Alcotest.test_case "fault plan projection" `Quick test_to_fault_plan_projection;
        ] );
      ( "incremental-cert",
        [
          Alcotest.test_case "create matches full" `Quick test_cert_create_matches_full;
          Alcotest.test_case "rejects invalid" `Quick test_cert_create_rejects;
          Alcotest.test_case "sweeps strictly fewer" `Quick
            test_incremental_sweeps_strictly_fewer;
          Alcotest.test_case "weighted dirty radius" `Quick test_weighted_dirty_radius;
        ] );
      ( "soak",
        [
          Alcotest.test_case "certified every batch (1000 events)" `Quick
            test_soak_certified_every_batch;
          Alcotest.test_case "weighted heal keeps G's weights" `Quick test_soak_weighted_heal;
          Alcotest.test_case "deterministic" `Quick test_soak_deterministic;
          Alcotest.test_case "traffic accounting" `Quick test_soak_traffic_accounting;
          Alcotest.test_case "rejects invalid" `Quick test_soak_rejects;
          Alcotest.test_case "json shape" `Quick test_soak_json_shape;
        ] );
      ( "qcheck",
        q [ prop_incremental_oracle; prop_incremental_bookkeeping; prop_soak_deterministic ] );
    ]
