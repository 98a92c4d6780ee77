(* Tests for the construction registry: the single source every layer (CLI
   parsing, premise validation, bench sweeps, edge normalization) reads. *)

let check = Alcotest.check

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* ---- lookup ---- *)

let test_find_canonical () =
  List.iter
    (fun name ->
      match Construction.find name with
      | Ok c -> check Alcotest.string "canonical resolves to itself" name c.Construction.name
      | Error e -> Alcotest.failf "find %S: %s" name e)
    Construction.names

let test_find_alias () =
  List.iter
    (fun c ->
      List.iter
        (fun alias ->
          match Construction.find alias with
          | Ok c' ->
              check Alcotest.string
                (Printf.sprintf "alias %S resolves" alias)
                c.Construction.name c'.Construction.name
          | Error e -> Alcotest.failf "alias %S: %s" alias e)
        c.Construction.aliases)
    Construction.all

let test_find_case_insensitive () =
  match Construction.find "THEOREM2" with
  | Ok c -> check Alcotest.string "uppercase resolves" "theorem2" c.Construction.name
  | Error e -> Alcotest.fail e

let test_find_unknown_names_every_alias () =
  (* the "expected ..." error message is generated from the registry: it must
     name every canonical name AND every alias, so a user who typed a stale
     spelling sees the accepted one *)
  match Construction.find "no-such-construction" with
  | Ok _ -> Alcotest.fail "unknown name resolved"
  | Error msg ->
      check Alcotest.bool "mentions the query" true
        (contains ~needle:"no-such-construction" msg);
      List.iter
        (fun name ->
          check Alcotest.bool
            (Printf.sprintf "error message names %S" name)
            true (contains ~needle:name msg))
        Construction.all_names

let test_find_exn_raises () =
  Alcotest.check_raises "find_exn unknown"
    (Invalid_argument
       (match Construction.find "bogus" with
       | Error msg -> "Construction.find_exn: " ^ msg
       | Ok _ -> assert false))
    (fun () -> ignore (Construction.find_exn "bogus"))

(* ---- registry invariants ---- *)

let test_no_collisions () =
  let seen = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let k = String.lowercase_ascii s in
      check Alcotest.bool (Printf.sprintf "%S unique" s) false (Hashtbl.mem seen k);
      Hashtbl.replace seen k ())
    Construction.all_names

let test_metadata_nonempty () =
  List.iter
    (fun c ->
      check Alcotest.bool (c.Construction.name ^ " has a guarantee") true
        (String.length c.Construction.guarantee > 0);
      check Alcotest.bool (c.Construction.name ^ " has a reference") true
        (String.length c.Construction.reference > 0);
      check Alcotest.bool (c.Construction.name ^ " premise text") true
        (String.length (Premise.requirement_text c.Construction.premise) > 0);
      check Alcotest.bool (c.Construction.name ^ " edge exponent sane") true
        (c.Construction.edge_exponent >= 1.0 && c.Construction.edge_exponent <= 2.0))
    Construction.all

let test_accepting_subset () =
  let g = Generators.random_regular (Prng.create 11) 150 40 in
  let p = Premise.check g in
  let acc = Construction.accepting p in
  check Alcotest.bool "accepting is non-empty (Any entries)" true (List.length acc > 0);
  List.iter
    (fun c -> check Alcotest.bool (c.Construction.name ^ " accepted") true (Construction.premise_ok c p))
    acc;
  (* every [Any] construction accepts every graph *)
  List.iter
    (fun c ->
      if c.Construction.premise = Premise.Any then
        check Alcotest.bool (c.Construction.name ^ " (Any) in accepting") true
          (List.exists (fun c' -> c'.Construction.name = c.Construction.name) acc))
    Construction.all

let test_json_mentions_every_name () =
  let json = Construction.to_json () in
  List.iter
    (fun name ->
      check Alcotest.bool (Printf.sprintf "json names %S" name) true
        (contains ~needle:(Printf.sprintf "\"name\":\"%s\"" name) json))
    Construction.names

(* ---- building through the registry ---- *)

let test_build_smoke () =
  let g = Generators.random_regular (Prng.create 21) 64 24 in
  List.iter
    (fun c ->
      let dc = Construction.build c (Prng.create 22) g in
      check Alcotest.bool
        (c.Construction.name ^ " spanner is a subgraph")
        true
        (Graph.is_subgraph dc.Dc.spanner ~of_:g))
    Construction.all

(* ---- the sampler contract ---- *)

let reverse p = Array.init (Array.length p) (fun i -> p.(Array.length p - 1 - i))

let is_shortest_path h u v p =
  let len = Array.length p in
  len >= 1
  && p.(0) = u
  && p.(len - 1) = v
  && List.for_all (fun i -> Graph.mem_edge h p.(i) p.(i + 1)) (List.init (len - 1) Fun.id)
  && len - 1 = Bfs.distance (Graph.snapshot h) u v

let in_support h (u, v) dist p =
  match dist with
  | Dc.Direct -> p = [| u; v |]
  | Dc.Uniform [||] | Dc.Shortest -> is_shortest_path h u v p
  | Dc.Uniform ps -> p.(0) = u && Array.exists (fun c -> c = p || reverse c = p) ps

(* Every route [route_matching] draws lies in the support of [Dc.paths] for
   its request, and a spanner-edge request draws once under the
   shortest-path walk and never under [Direct]. *)
let prop_sampler_contract =
  QCheck.Test.make ~name:"routes lie in Dc.paths" ~count:10
    QCheck.(triple small_int (int_range 16 60) (int_range 3 24))
    (fun (seed, n, d) ->
      let d = min d (n - 1) in
      let d = if n * d mod 2 = 1 then d - 1 else d in
      let g = Generators.random_regular (Prng.create seed) n d in
      List.for_all
        (fun c ->
          let name = c.Construction.name in
          let dc = Construction.build c (Prng.create (seed + 1)) g in
          let h = dc.Dc.spanner in
          let rng = Prng.create (seed + 2) in
          Array.iter
            (fun (u, v) ->
              let dist = dc.Dc.paths u v in
              match dc.Dc.route_matching rng [| (u, v) |] with
              | [| p |] when in_support h (u, v) dist p -> ()
              | _ ->
                  QCheck.Test.fail_reportf "%s: the route of (%d, %d) is outside its support" name
                    u v)
            (Matching.random_maximal rng g);
          (match Graph.edge_array h with
          | [||] -> ()
          | edges ->
              let u, v = edges.(0) in
              let draws =
                match dc.Dc.paths u v with
                | Dc.Direct -> 0
                | Dc.Shortest -> 1
                | Dc.Uniform _ -> QCheck.Test.fail_reportf "%s: a spanner edge is not direct" name
              in
              let routed = Prng.create seed in
              let expected = Prng.copy routed in
              ignore (dc.Dc.route_matching routed [| (u, v) |]);
              if draws = 1 then ignore (Prng.int expected 1);
              if Prng.int64 routed <> Prng.int64 expected then
                QCheck.Test.fail_reportf "%s: a spanner edge should draw %d time(s)" name draws);
          true)
        Construction.all)

(* ---- a build is a function of G's edge set and the seed ---- *)

(* test_golden's route digest: over three random maximal matchings of G
   routed in turn, the 2-hop and 3-hop route counts and the sum of the
   routes' intermediate nodes, then the routing generator's next draw *)
let route_digest g (dc : Dc.t) =
  let rng = Prng.create 4 in
  let two = ref 0 and three = ref 0 and inner = ref 0 in
  for _ = 1 to 3 do
    Array.iter
      (fun p ->
        let len = Routing.length p in
        if len = 2 then incr two else if len = 3 then incr three;
        for i = 1 to len - 1 do
          inner := !inner + p.(i)
        done)
      (dc.Dc.route_matching rng (Matching.random_maximal rng g))
  done;
  (!two, !three, !inner, Prng.int rng 1_000_000)

(* a copy of [g] that reaches the same edge set through another history:
   rounds of removing random edges and adding them back in reverse, with
   snapshots in between *)
let rehearsed st g =
  let h = Graph.copy g in
  for _ = 1 to 3 do
    let batch = List.filter (fun _ -> Random.State.bool st) (Graph.edges h) in
    List.iter (fun (u, v) -> ignore (Graph.remove_edge h u v)) batch;
    if Random.State.bool st then ignore (Graph.snapshot h);
    List.iter (fun (u, v) -> ignore (Graph.add_edge h u v)) (List.rev batch);
    if Random.State.bool st then ignore (Graph.snapshot h)
  done;
  h

(* Every entry gives the same spanner, route digest and evaluation row on G
   as generated (a random_regular graph carries pending deletions; the
   other input is built by add_edge in shuffled order), on a copy of G with
   another commit history, and on G read back from its canonical store. *)
let prop_order_free =
  QCheck.Test.make ~name:"builds depend only on G's edge set" ~count:6
    QCheck.(pair small_int (int_range 16 40))
    (fun (seed, n) ->
      let d = min 12 (n - 1) in
      let d = if n * d mod 2 = 1 then d - 1 else d in
      let input shuffled =
        let g = Generators.random_regular (Prng.create seed) n d in
        if not shuffled then g
        else begin
          let es = Array.of_list (Graph.edges g) in
          Prng.shuffle (Prng.create (seed + 7)) es;
          Graph.of_edges n (Array.to_list es)
        end
      in
      List.for_all
        (fun (c, shuffled) ->
          let outcome g =
            let dc = Construction.build c (Prng.create (seed + 1)) g in
            let edges = List.sort compare (Graph.edges dc.Dc.spanner) in
            let digest = route_digest g dc in
            (edges, digest, Experiment.evaluate ~trials:2 ~with_lambda:false (Prng.create 9) dc)
          in
          let g = input shuffled in
          let variants =
            [ rehearsed (Random.State.make [| seed |]) g; Graph.of_csr (Graph.to_csr g) ]
          in
          let want = outcome g in
          List.for_all (fun v -> outcome v = want) variants
          || QCheck.Test.fail_reportf "%s: the output depends on G's history (%s input)"
               c.Construction.name
               (if shuffled then "add_edge" else "generated"))
        (List.concat_map (fun c -> [ (c, false); (c, true) ]) Construction.all))

(* ---- G's weights ---- *)

(* the entries whose repair pass or rule bounds the distance stretch *)
let stretch_bounded =
  [ "algorithm1"; "irregular"; "khop-5"; "khop-7"; "elkin-neiman"; "baswana-sen" ]

(* On a weighted G, every entry's spanner is a subgraph of G at G's
   weights, and the stretch-bounded entries meet their alpha under those
   weights.  Small random graphs, often disconnected, weights in [1, 9]. *)
let prop_keeps_weights =
  QCheck.Test.make ~name:"every spanner keeps G's weights" ~count:20
    QCheck.(triple small_int (int_range 6 40) (int_range 2 9))
    (fun (seed, n, w_max) ->
      let rng = Prng.create seed in
      let g =
        Generators.randomize_weights rng
          (Generators.erdos_renyi rng n (0.1 +. Prng.float rng *. 0.4))
          ~w_max
      in
      List.for_all
        (fun c ->
          let name = c.Construction.name in
          let h = (Construction.build c (Prng.create (seed + 1)) g).Dc.spanner in
          Graph.iter_edges_w h (fun u v w ->
              if not (Graph.mem_edge g u v && Graph.edge_weight g u v = w) then
                QCheck.Test.fail_reportf "%s: (%d, %d) weighs %d in H, not its weight in G" name
                  u v w);
          (Graph.is_subgraph h ~of_:g
          || QCheck.Test.fail_reportf "%s: is_subgraph disagrees" name)
          &&
          match c.Construction.alpha with
          | Some alpha when List.mem name stretch_bounded ->
              let s = Stretch.exact g h in
              float_of_int s <= alpha
              || QCheck.Test.fail_reportf "%s: weighted stretch %d > %g" name s alpha
          | _ -> true)
        Construction.all)

let test_premise_warnings_any_empty () =
  let g = Generators.ring_of_cliques 4 10 in
  List.iter
    (fun c ->
      if c.Construction.premise = Premise.Any then
        check Alcotest.(list string) (c.Construction.name ^ " no warnings") []
          (Construction.premise_warnings c g))
    Construction.all

let () =
  Alcotest.run "registry"
    [
      ( "lookup",
        [
          Alcotest.test_case "canonical names" `Quick test_find_canonical;
          Alcotest.test_case "aliases" `Quick test_find_alias;
          Alcotest.test_case "case insensitive" `Quick test_find_case_insensitive;
          Alcotest.test_case "unknown names every alias" `Quick test_find_unknown_names_every_alias;
          Alcotest.test_case "find_exn raises" `Quick test_find_exn_raises;
        ] );
      ( "invariants",
        [
          Alcotest.test_case "no name collisions" `Quick test_no_collisions;
          Alcotest.test_case "metadata non-empty" `Quick test_metadata_nonempty;
          Alcotest.test_case "accepting filter" `Quick test_accepting_subset;
          Alcotest.test_case "json covers registry" `Quick test_json_mentions_every_name;
        ] );
      ( "build",
        [
          Alcotest.test_case "every entry builds" `Quick test_build_smoke;
          Alcotest.test_case "Any premises never warn" `Quick test_premise_warnings_any_empty;
          QCheck_alcotest.to_alcotest prop_sampler_contract;
          QCheck_alcotest.to_alcotest prop_order_free;
          QCheck_alcotest.to_alcotest prop_keeps_weights;
        ] );
    ]
