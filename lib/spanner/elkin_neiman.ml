(* Elkin–Neiman near-linear-time sparse spanner (PAPERS.md: "Efficient
   Algorithms for Constructing Very Sparse Spanners and Emulators").

   Every node draws r_v ~ Exp(beta) with beta = ln(2n)/k, truncated below k;
   k rounds of discounted max-propagation compute
   x_i(v) = max_u { r_u - d(u, v) : d(u, v) <= i } together with the origin
   u attaining it.  A node keeps the edge to each neighbor whose incoming
   broadcast is within 1 of its own round-k maximum, one edge per distinct
   origin — the exponential race makes the number of near-maximal origins
   O((2n)^{1/k}) in expectation, giving E[m(H)] = O(n^{1+1/k}) while every
   kept broadcast path certifies a short detour.  Total work is O(k·m) plus
   one O(n + m) counting-sort build of the result.

   The propagation variant trades the paper's w.h.p. guarantee for a
   deterministic safety net: with [repair] on (the default), one
   Support.repair pass re-adds every edge whose detour exceeds 2k-1.
   Adding edges only shrinks spanner distances, so a single pass makes the
   stretch bound unconditional. *)

type result = { spanner : Graph.t; removed : int; repaired : int }

let build ?(k = 2) ?(repair = true) rng g =
  if k < 1 then invalid_arg "Elkin_neiman.build: k must be >= 1";
  let c = Graph.snapshot g in
  let size = Csr.n c in
  let beta = log (2.0 *. float_of_int (max 2 size)) /. float_of_int k in
  let fk = float_of_int k in
  let len = max 1 size in
  let r = Array.make len 0.0 in
  Trace.with_span ~name:"en.radii" (fun () ->
      for v = 0 to size - 1 do
        (* Truncated exponential: conditioning every r_v below k keeps the
           detour argument deterministic instead of w.h.p. *)
        let rec draw () =
          let x = -.log1p (-.Prng.float rng) /. beta in
          if x < fk then x else draw ()
        in
        r.(v) <- draw ()
      done);
  let pv = ref (Array.copy r) and po = ref (Array.init len (fun v -> v)) in
  let cv = ref (Array.make len 0.0) and co = ref (Array.make len 0) in
  Trace.with_span ~name:"en.propagate" (fun () ->
      for round = 1 to k do
        let pv_ = !pv and po_ = !po and cv_ = !cv and co_ = !co in
        for v = 0 to size - 1 do
          let bv = ref pv_.(v) and bo = ref po_.(v) in
          Csr.iter_neighbors c v (fun w ->
              let a = pv_.(w) -. 1.0 in
              if a > !bv then begin
                bv := a;
                bo := po_.(w)
              end);
          cv_.(v) <- !bv;
          co_.(v) <- !bo
        done;
        if round < k then begin
          let t = !pv in
          pv := !cv;
          cv := t;
          let t = !po in
          po := !co;
          co := t
        end
      done);
  (* !pv/!po = x_{k-1}, !cv = x_k *)
  let xp_val = !pv and xp_org = !po and xk_val = !cv in
  let h_csr =
    Trace.with_span ~name:"en.keep" (fun () ->
        (* [kept.(o) = v + 1] iff origin [o] already has an edge kept at [v] *)
        let kept = Array.make len 0 in
        let keep emit =
          for v = 0 to size - 1 do
            let t = xk_val.(v) -. 1.0 in
            Csr.iter_neighbors c v (fun w ->
                let a = xp_val.(w) -. 1.0 in
                if a >= t then begin
                  let o = xp_org.(w) in
                  if kept.(o) <> v + 1 then begin
                    kept.(o) <- v + 1;
                    emit v w
                  end
                end)
          done
        in
        (* H keeps G's weights *)
        if Csr.is_weighted c then
          Csr.of_weighted_stream ~m_hint:(Graph.m g) ~n:size (fun emit ->
              keep (fun v w -> emit v w (Csr.edge_weight c v w)))
        else Csr.of_stream ~m_hint:(Graph.m g) ~n:size keep)
  in
  let h = Graph.of_csr h_csr in
  let removed = Graph.m g - Graph.m h in
  let repaired =
    if not repair then 0
    else
      Trace.with_span ~name:"en.repair" (fun () -> Support.repair g h ~bound:((2 * k) - 1))
  in
  { spanner = h; removed; repaired }
