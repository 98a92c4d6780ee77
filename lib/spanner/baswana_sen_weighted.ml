(* Weighted Baswana–Sen (2k−1)-spanner [BS07], the clustering construction.

   Phase 1 runs k−1 rounds over the residual graph.  Each round samples the
   current cluster centers with probability n^(−1/k); a vertex of an
   unsampled cluster looks at the lightest residual edge it has into every
   adjacent cluster and either (a) has no sampled neighbor cluster — keeps
   the lightest edge to EVERY adjacent cluster and retires from the residual
   graph — or (b) joins the sampled cluster c* reachable by the lightest
   edge, of weight w*, keeps that edge plus the lightest edge to every
   cluster whose lightest edge weighs strictly less than w*, and drops its
   residual edges into all the clusters so covered.  At the end of the
   round every residual edge whose endpoints now share a cluster is dropped
   too.  Phase 2 joins every surviving vertex to each adjacent cluster by
   its lightest remaining edge.

   Every dropped edge (v, u) of weight w leaves a spanner path of at most
   2k−1 edges, none heavier than w: either v kept an edge of weight <= w
   into u's cluster, or (v, u) lay inside one cluster, and a cluster's tree
   path from a vertex to its center carries no edge heavier than that
   vertex's residual edges (a vertex joins by its lightest edge into a
   sampled cluster and keeps residual only edges at least as heavy).  That
   is the (2k−1)·w detour bound, checked against a Floyd–Warshall
   reference in the tests.  The cover test compares weights alone: an arc
   into a cluster whose lightest edge weighs exactly w* is not covered, so
   it stays residual and a later round or phase 2 keeps an edge of weight
   <= w into that cluster.  (weight, neighbor) picks each
   cluster's lightest edge and the cluster to join, so the construction is
   deterministic given the sampling draws; breaking cover ties by neighbor
   instead would keep, on unit weights, an edge to every unsampled neighbor
   cluster below the joined one — about twice the edges.  Drops are queued
   during a round and applied at its end, so every vertex sees the same
   round-start residual graph and round-start degrees.

   Flat layout, O(k·m) time with no hashing.  G is read in place through
   [Graph.iter_neighbors_w] and never copied or mutated: arc [a] of v's row
   is [off.(v)] plus its position in that (ascending) iteration, and the
   residual graph is one alive byte per arc plus live degrees.  A vertex's
   per-cluster minima live in arrays indexed by cluster id, valid where
   [mark] holds the current epoch.  At round end the queued drops are
   counting-sorted by tail in both orientations, and each tail stamps its
   heads and clears them, with its intra-cluster arcs, in one scan of its
   row.  Kept edges are buffered and H is built once as a committed CSR, so
   its snapshot is cached.  A build allocates one byte per arc of G plus
   O(n + m(H) + drops) words, none of it kept past the call. *)

(* a growable int buffer *)
type buf = { mutable data : int array; mutable len : int }

let push b x =
  if b.len = Array.length b.data then begin
    let d = Array.make (max 64 (2 * b.len)) 0 in
    Array.blit b.data 0 d 0 b.len;
    b.data <- d
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

(* (w, u) < (w', u') lexicographically; typed int so the compares are
   machine compares, not calls to the polymorphic compare *)
let lighter (w : int) (u : int) w' u' = w < w' || (w = w' && u < u')

let build ?(k = 2) rng g =
  if k < 1 then invalid_arg "Baswana_sen_weighted.build: k < 1";
  let n = Graph.n g in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Graph.degree g v
  done;
  let alive = Bytes.make off.(n) '\001' and deg = Array.init n (Graph.degree g) in
  (* f a u w over v's residual arcs, a the arc id *)
  let scan v f =
    let a = ref off.(v) in
    Graph.iter_neighbors_w g v (fun u w ->
        if Bytes.get alive !a = '\001' then f !a u w;
        incr a)
  in
  let mark = Array.make n 0 and epoch = ref 0 in
  let best_w = Array.make n 0 and best_u = Array.make n 0 and touched = Array.make n 0 in
  (* the lightest residual edge from v into each adjacent cluster of [cl]:
     returns their count, the clusters listed in touched *)
  let lightest cl v =
    incr epoch;
    let e = !epoch and nt = ref 0 in
    scan v (fun _ u w ->
        let c = cl.(u) in
        if c >= 0 then
          if mark.(c) <> e then begin
            mark.(c) <- e;
            best_w.(c) <- w;
            best_u.(c) <- u;
            touched.(!nt) <- c;
            incr nt
          end
          else if lighter w u best_w.(c) best_u.(c) then begin
            best_w.(c) <- w;
            best_u.(c) <- u
          end);
    !nt
  in
  let kept = { data = [||]; len = 0 } and unit = ref true in
  let keep v c =
    push kept v;
    push kept best_u.(c);
    push kept best_w.(c);
    if best_w.(c) <> 1 then unit := false
  in
  (* queued drops as (v, u) pairs; entry i's partner is entry i lxor 1.
     Both orientations are grouped by tail, and each tail stamps its heads
     in [mark] under a fresh epoch, then clears them and every arc into its
     own new cluster in one row scan. *)
  let kills = { data = [||]; len = 0 } in
  let end_round next =
    let q = kills.data and nq = kills.len in
    let first = Array.make (n + 1) 0 in
    for i = 0 to nq - 1 do
      first.(q.(i) + 1) <- first.(q.(i) + 1) + 1
    done;
    for v = 1 to n do
      first.(v) <- first.(v) + first.(v - 1)
    done;
    let fill = Array.sub first 0 n and heads = Array.make nq 0 in
    for i = 0 to nq - 1 do
      let t = q.(i) in
      heads.(fill.(t)) <- q.(i lxor 1);
      fill.(t) <- fill.(t) + 1
    done;
    for t = 0 to n - 1 do
      let c = next.(t) in
      if deg.(t) > 0 && (first.(t + 1) > first.(t) || c >= 0) then begin
        incr epoch;
        let e = !epoch in
        for i = first.(t) to first.(t + 1) - 1 do
          mark.(heads.(i)) <- e
        done;
        scan t (fun a u _ ->
            if mark.(u) = e || (c >= 0 && next.(u) = c) then begin
              Bytes.set alive a '\000';
              deg.(t) <- deg.(t) - 1
            end)
      end
    done;
    kills.len <- 0
  in
  let p = float_of_int n ** (-1.0 /. float_of_int k) in
  (* cluster.(v) = center id of v's current cluster, -1 once v retired *)
  let cluster = ref (Array.init n Fun.id) in
  for _round = 1 to k - 1 do
    let cl = !cluster in
    (* step 1: sample the current centers *)
    let is_center = Array.make n false in
    for v = 0 to n - 1 do
      if cl.(v) >= 0 then is_center.(cl.(v)) <- true
    done;
    let sampled = Array.make n false in
    for c = 0 to n - 1 do
      if is_center.(c) then sampled.(c) <- Prng.bool rng p
    done;
    let next = Array.make n (-1) in
    for v = 0 to n - 1 do
      if cl.(v) >= 0 && sampled.(cl.(v)) then next.(v) <- cl.(v)
    done;
    (* steps 2–3: per-vertex case split, drops applied at round end *)
    for v = 0 to n - 1 do
      if cl.(v) >= 0 && (not sampled.(cl.(v))) && deg.(v) > 0 then begin
        let nt = lightest cl v in
        (* u names its cluster, so (w, u) already orders the candidates the
           way (w, u, center) does *)
        let star = ref (-1) in
        for i = 0 to nt - 1 do
          let c = touched.(i) and s = !star in
          if sampled.(c) && (s < 0 || lighter best_w.(c) best_u.(c) best_w.(s) best_u.(s)) then
            star := c
        done;
        let cs = !star in
        if cs >= 0 then next.(v) <- cs;
        (* with no sampled neighbor cluster v covers every adjacent cluster
           and retires; otherwise it covers the joined cluster and every
           cluster whose lightest edge weighs strictly less *)
        let covers =
          if cs < 0 then fun _ -> true
          else
            let ws = best_w.(cs) in
            fun c -> c = cs || (c >= 0 && best_w.(c) < ws)
        in
        for i = 0 to nt - 1 do
          if covers touched.(i) then keep v touched.(i)
        done;
        scan v (fun _ u _ ->
            if covers cl.(u) then begin
              push kills v;
              push kills u
            end)
      end
    done;
    end_round next;
    cluster := next
  done;
  (* phase 2: vertex–cluster joining over the surviving residual edges *)
  let cl = !cluster in
  for v = 0 to n - 1 do
    if deg.(v) > 0 then
      for i = 0 to lightest cl v - 1 do
        keep v touched.(i)
      done
  done;
  let d = kept.data and nk = kept.len / 3 in
  Graph.of_csr
    (if !unit then
       Csr.of_stream ~m_hint:nk ~n (fun emit ->
           for i = 0 to nk - 1 do
             emit d.(3 * i) d.((3 * i) + 1)
           done)
     else
       Csr.of_weighted_stream ~m_hint:nk ~n (fun emit ->
           for i = 0 to nk - 1 do
             emit d.(3 * i) d.((3 * i) + 1) d.((3 * i) + 2)
           done))
