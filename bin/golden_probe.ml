let () =
  (* probe deterministic values for golden tests *)
  let g = Generators.random_regular (Prng.create 1) 60 20 in
  Printf.printf "g m=%d\n" (Graph.m g);
  let t = Regular_dc.build (Prng.create 2) g in
  Printf.printf "alg1 m=%d sampled=%d reinserted=%d repaired=%d\n"
    (Graph.m t.Regular_dc.spanner) (Graph.m t.Regular_dc.sampled) t.Regular_dc.reinserted t.Regular_dc.repaired;
  let e = Expander_dc.build (Prng.create 3) g in
  Printf.printf "thm2 m=%d p=%.6f\n" (Graph.m e.Expander_dc.spanner) e.Expander_dc.p;
  let r = Dc.measure_matching (Expander_dc.to_dc e g) (Prng.create 4) ~trials:3 in
  Printf.printf "thm2 match mean=%.6f max=%d len mean=%.6f max=%d\n" r.Dc.mean_congestion
    r.Dc.max_congestion r.Dc.mean_path_len r.Dc.max_path_len;
  (* the same three matchings routed again: Lemma 4 detours by hop count,
     plus the sum of their intermediate nodes *)
  let route = (Expander_dc.to_dc e g).Dc.route_matching in
  let rng = Prng.create 4 in
  let two = ref 0 and three = ref 0 and inner = ref 0 in
  for _ = 1 to 3 do
    let m = Matching.random_maximal rng g in
    Array.iter
      (fun p ->
        let len = Routing.length p in
        if len = 2 then incr two else if len = 3 then incr three;
        for i = 1 to len - 1 do
          inner := !inner + p.(i)
        done)
      (route rng m)
  done;
  Printf.printf "thm2 routes two=%d three=%d inner=%d\n" !two !three !inner;
  let dc = Regular_dc.to_dc t g in
  let r = Dc.measure_matching dc (Prng.create 4) ~trials:3 in
  Printf.printf "match mean=%.6f max=%d\n" r.Dc.mean_congestion r.Dc.max_congestion;
  let h = Baswana_sen_weighted.build ~k:2 (Prng.create 5) g in
  Printf.printf "bs m=%d\n" (Graph.m h);
  let gr = Classic.greedy g ~k:2 in
  Printf.printf "greedy m=%d\n" (Graph.m gr);
  let lam = Spectral.lambda (Graph.snapshot g) in
  Printf.printf "lambda=%.6f\n" lam;
  let dist = Dist_spanner.run ~seed:6 g in
  Printf.printf "dist m=%d messages=%d\n" (Graph.m dist.Dist_spanner.spanner) dist.Dist_spanner.messages;
  (* test_golden's route digests: per registry entry, all on the same G *)
  List.iter
    (fun c ->
      let dc = Construction.build c (Prng.create 2) g in
      let rng = Prng.create 4 in
      let two = ref 0 and three = ref 0 and inner = ref 0 in
      for _ = 1 to 3 do
        let m = Matching.random_maximal rng g in
        Array.iter
          (fun p ->
            let len = Routing.length p in
            if len = 2 then incr two else if len = 3 then incr three;
            for i = 1 to len - 1 do
              inner := !inner + p.(i)
            done)
          (dc.Dc.route_matching rng m)
      done;
      Printf.printf "route digest %s: (%d, %d, %d, %d, %d)\n" c.Construction.name
        (Graph.m dc.Dc.spanner) !two !three !inner (Prng.int rng 1_000_000))
    Construction.all
