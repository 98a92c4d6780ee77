let width = Sys.int_size (* 63 usable bits per native word on 64-bit *)

let ring_max = 16

let m_sweeps = Metrics.counter "bfs_batch.sweeps"
let m_words = Metrics.counter "bfs_batch.words"
let m_reuses = Metrics.counter "bfs.scratch_reuses"
let m_sweep_us = Metrics.histo "bfs_batch.sweep_us" (* wall time per batched sweep *)

(* shared with the scalar kernel: one (source, node) discovery = one visit,
   so dashboards see total BFS work regardless of which kernel ran it *)
let m_visited = Metrics.counter "bfs.nodes_visited"

(* Per-domain arena.  The mask arrays hold one source-bitmask per node and
   are all zero between sweeps, as are the ring's list lengths: a sweep
   writes them only at the nodes it reaches and clears exactly those
   entries before returning.  The list arrays name those nodes, so no step
   of a sweep ever scans all n.  Domains spawned by [Parallel] each get
   their own arena, so concurrent sweeps never share state. *)
type scratch = {
  mutable seen : int array;  (* sources that reached the node *)
  mutable front : int array;  (* sources that settled the node this level *)
  mutable tmask : int array;  (* sources the node is a target of *)
  mutable base : int array;  (* first hit slot of a target node *)
  mutable cur : int array;  (* node list: the frontier *)
  mutable reached : int array;  (* node list: the nodes with seen <> 0 *)
  mutable tnodes : int array;  (* node list: the nodes with tmask <> 0 *)
  mutable next : int array array;
      (* ring slot i: sources arriving at the node at a level = i modulo the
         ring size; an unweighted sweep uses slot 0 only *)
  mutable hits : int array array;  (* ring slot i: the nodes its masks name *)
  mutable fill : int array;  (* ring slot i: the length of its node list *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        seen = [||];
        front = [||];
        tmask = [||];
        base = [||];
        cur = [||];
        reached = [||];
        tnodes = [||];
        next = [||];
        hits = [||];
        fill = [||];
      })

(* the arena for [n] nodes and [slots] ring slots; extra slots are made on
   first use, at the arena's current size *)
let scratch n slots =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.seen < n then begin
    s.seen <- Array.make n 0;
    s.front <- Array.make n 0;
    s.tmask <- Array.make n 0;
    s.base <- Array.make n 0;
    s.cur <- Array.make n 0;
    s.reached <- Array.make n 0;
    s.tnodes <- Array.make n 0;
    s.next <- [| Array.make n 0 |];
    s.hits <- [| Array.make n 0 |];
    s.fill <- [| 0 |]
  end
  else Metrics.incr m_reuses;
  let have = Array.length s.next in
  if have < slots then begin
    let size = Array.length s.seen in
    let grow slot = Array.init slots (fun i -> if i < have then slot.(i) else Array.make size 0) in
    s.next <- grow s.next;
    s.hits <- grow s.hits;
    s.fill <- Array.make slots 0
  end;
  s

(* Number of set bits among the 63 of [x] (SWAR; the literals wrap to the
   63-bit patterns, the final shift is logical). *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0f0f0f0f0f0f0f0f in
  (x * 0x0101010101010101) lsr 56

(* The one traversal loop.  [weighted] reads [g]'s arc weights; [run]
   passes [false] to measure hops on any snapshot. *)
let sweep ~weighted ~bound (g : Csr.t) sources targets =
  let k = Array.length sources in
  let n = g.Csr.n in
  if k > width then
    invalid_arg
      (Printf.sprintf "Bfs_batch.to_targets: %d sources exceed the word width %d" k width);
  if Array.length targets <> k then
    invalid_arg "Bfs_batch.to_targets: one target array per source";
  let in_range v = v >= 0 && v < n in
  if not (Array.for_all in_range sources) then
    invalid_arg "Bfs_batch.to_targets: source out of range";
  if not (Array.for_all (Array.for_all in_range) targets) then
    invalid_arg "Bfs_batch.to_targets: target out of range";
  (* an arrival [w] levels ahead waits in ring slot (level + w) mod [ring];
     no scattered arc is heavier than [ring] *)
  let weights = if weighted && g.Csr.max_weight > 1 then g.Csr.weights else None in
  let ring = match weights with None -> 1 | Some _ -> max 1 (min g.Csr.max_weight bound) in
  if ring > ring_max then
    invalid_arg
      (Printf.sprintf "Bfs_batch.to_targets: a ring of %d levels exceeds ring_max %d" ring
         ring_max);
  if k = 0 then [||]
  else begin
    let t_start = if !Obs.metrics then Obs.now_us () else 0.0 in
    (* everything the call allocates is allocated before it writes to the
       arena, so no failed allocation can leave the arena dirty *)
    let dist = Array.map (fun ts -> Array.make (Array.length ts) (-1)) targets in
    let slot = Array.make (Array.fold_left (fun t ts -> t + Array.length ts) 0 targets) (-1) in
    let remaining = Array.make k 0 in
    let s = scratch n ring in
    let seen = s.seen and front = s.front in
    let tmask = s.tmask and base = s.base in
    let cur = s.cur and reached = s.reached and tnodes = s.tnodes in
    let nexts = s.next and hitss = s.hits and fill = s.fill in
    let xadj = g.Csr.xadj and adjncy = g.Csr.adjncy in
    (* Index the targets.  [tmask.(v)] collects the sources aiming at [v];
       their hits at [v] take the slots from [base.(v)] on, source [j]'s at
       rank [popcount (tmask.(v) land (bit j - 1))].  [remaining.(j)] counts
       the distinct targets source [j] has not met yet. *)
    let ntn = ref 0 in
    for j = 0 to k - 1 do
      let bit = 1 lsl j in
      Array.iter
        (fun v ->
          let t = tmask.(v) in
          if t land bit = 0 then begin
            if t = 0 then begin
              tnodes.(!ntn) <- v;
              incr ntn
            end;
            tmask.(v) <- t lor bit;
            remaining.(j) <- remaining.(j) + 1
          end)
        targets.(j)
    done;
    let nslots = ref 0 in
    for i = 0 to !ntn - 1 do
      let v = tnodes.(i) in
      base.(v) <- !nslots;
      nslots := !nslots + popcount tmask.(v)
    done;
    (* a source stays live, and keeps expanding, while it has targets left *)
    let live = ref 0 in
    for j = 0 to k - 1 do
      if remaining.(j) > 0 then live := !live lor (1 lsl j)
    done;
    (* level 0: the sources enter ring slot 0, as if scattered into *)
    let next0 = nexts.(0) and hits0 = hitss.(0) in
    for j = 0 to k - 1 do
      let src = sources.(j) in
      let nu = next0.(src) in
      if nu = 0 then begin
        hits0.(fill.(0)) <- src;
        fill.(0) <- fill.(0) + 1
      end;
      next0.(src) <- nu lor (1 lsl j)
    done;
    let pending = ref fill.(0) (* nodes listed across the ring *) in
    let ncur = ref 0 and nreached = ref 0 in
    let words = ref 0 and visited = ref 0 in
    let level = ref 0 and at = ref 0 (* the level's ring slot *) in
    let sweeping = ref true in
    while !sweeping do
      (* gather: the bits of the level's slot not yet seen settle at this
         level and form the next frontier; a settled bit at one of its
         source's targets records the level in that target's slot *)
      let next = nexts.(!at) and hits = hitss.(!at) and nhits = fill.(!at) in
      fill.(!at) <- 0;
      pending := !pending - nhits;
      ncur := 0;
      for i = 0 to nhits - 1 do
        (* SAFETY: i < nhits <= n <= length of every arena array ([scratch
           n] grows them, ring slots included), and every listed node is
           < n: sources and targets are range-checked above, every other
           entry is an adjncy value (bounded by n: Graph.snapshot builds
           the CSR from validated edges). *)
        let u = Array.unsafe_get hits i in
        let su = Array.unsafe_get seen u in
        let fresh = Array.unsafe_get next u land lnot su in
        Array.unsafe_set next u 0;
        if fresh <> 0 then begin
          (* SAFETY: u < n as above; a node settles at most once per level
             and enters [reached] once (when seen leaves 0), so !ncur and
             !nreached stay below n. *)
          if su = 0 then begin
            Array.unsafe_set reached !nreached u;
            incr nreached
          end;
          Array.unsafe_set seen u (su lor fresh);
          Array.unsafe_set front u fresh;
          Array.unsafe_set cur !ncur u;
          incr ncur;
          visited := !visited + popcount fresh;
          (* SAFETY: u < n as above. *)
          let t = Array.unsafe_get tmask u in
          let b = ref (fresh land t) in
          while !b <> 0 do
            let low = !b land - !b in
            (* SAFETY: [low] is a bit of [t] = tmask.(u), so u is a target
               node and its slots base.(u) .. base.(u) + popcount t - 1 lie
               below the distinct (source, target) count <= length slot;
               masks only hold bits 0..k-1, so j < k = length remaining. *)
            Array.unsafe_set slot (Array.unsafe_get base u + popcount (t land (low - 1))) !level;
            let j = popcount (low - 1) in
            let r = Array.unsafe_get remaining j - 1 in
            Array.unsafe_set remaining j r;
            if r = 0 then live := !live land lnot low;
            b := !b lxor low
          done
        end
      done;
      words := !words + nhits;
      if !live = 0 || !level >= bound || (!ncur = 0 && !pending = 0) then sweeping := false
      else begin
        (* scatter: OR each frontier node's live source mask into its
           neighbours, listing every neighbour the first time it is hit *)
        let lv = !live in
        (match weights with
        | None ->
            (* every arc weighs 1: the one slot, just emptied, takes the
               next level *)
            let nh = ref 0 in
            for i = 0 to !ncur - 1 do
              (* SAFETY: as in the gather, i < !ncur <= n and every listed
                 node is < n; xadj has n+1 entries so v+1 is in bounds; CSR
                 construction bounds every xadj value by dim adjncy and
                 every adjncy entry by n. *)
              let v = Array.unsafe_get cur i in
              let fv = Array.unsafe_get front v land lv in
              Array.unsafe_set front v 0;
              if fv <> 0 then begin
                let start = Bigarray.Array1.unsafe_get xadj v in
                let stop = Bigarray.Array1.unsafe_get xadj (v + 1) in
                for e = start to stop - 1 do
                  (* SAFETY: start <= e < stop <= dim adjncy; u < n; a node
                     enters [hits] only when next.(u) leaves 0, once a
                     level. *)
                  let u = Bigarray.Array1.unsafe_get adjncy e in
                  let nu = Array.unsafe_get next u in
                  if nu = 0 then begin
                    Array.unsafe_set hits !nh u;
                    incr nh
                  end;
                  Array.unsafe_set next u (nu lor fv)
                done;
                words := !words + (stop - start)
              end
            done;
            fill.(0) <- !nh;
            pending := !nh
        | Some wts ->
            (* an arc of weight w lands w levels ahead, in slot (here + w)
               mod ring; one heavier than [room] would land past the bound,
               and [room >= 0] since the level is below the bound *)
            let room = bound - !level and here = !at in
            let added = ref 0 in
            for i = 0 to !ncur - 1 do
              (* SAFETY: as in the unweighted scatter; [wts] has dim
                 adjncy. *)
              let v = Array.unsafe_get cur i in
              let fv = Array.unsafe_get front v land lv in
              Array.unsafe_set front v 0;
              if fv <> 0 then begin
                let start = Bigarray.Array1.unsafe_get xadj v in
                let stop = Bigarray.Array1.unsafe_get xadj (v + 1) in
                for e = start to stop - 1 do
                  (* SAFETY: start <= e < stop <= dim adjncy = dim wts. *)
                  let w = Bigarray.Array1.unsafe_get wts e in
                  if w <= room then begin
                    (* SAFETY: 1 <= w <= room <= bound and w <= max_weight,
                       so w <= ring; with here < ring that puts sl in
                       [0, ring), and fill, nexts and hitss hold at least
                       [ring] slots ([scratch n ring]), each of the
                       arena's length >= n > u. *)
                    let u = Bigarray.Array1.unsafe_get adjncy e in
                    let sl = if here + w >= ring then here + w - ring else here + w in
                    let nx = Array.unsafe_get nexts sl in
                    let nu = Array.unsafe_get nx u in
                    if nu = 0 then begin
                      (* SAFETY: sl and u as above; a node enters slot sl's
                         list only when its mask there leaves 0, so the
                         list holds distinct nodes and c < n. *)
                      let c = Array.unsafe_get fill sl in
                      Array.unsafe_set (Array.unsafe_get hitss sl) c u;
                      Array.unsafe_set fill sl (c + 1);
                      incr added
                    end;
                    Array.unsafe_set nx u (nu lor fv)
                  end
                done;
                words := !words + (stop - start)
              end
            done;
            pending := !pending + !added);
        incr level;
        at := if !at + 1 = ring then 0 else !at + 1
      end
    done;
    (* clean reset: clear exactly the entries this sweep wrote, arrivals
       still waiting in the ring included *)
    for i = 0 to !ncur - 1 do
      front.(cur.(i)) <- 0
    done;
    for i = 0 to !nreached - 1 do
      seen.(reached.(i)) <- 0
    done;
    for sl = 0 to ring - 1 do
      let next = nexts.(sl) and hits = hitss.(sl) in
      for i = 0 to fill.(sl) - 1 do
        next.(hits.(i)) <- 0
      done;
      fill.(sl) <- 0
    done;
    Array.iteri
      (fun j ts ->
        let below = (1 lsl j) - 1 and row = dist.(j) in
        Array.iteri (fun i v -> row.(i) <- slot.(base.(v) + popcount (tmask.(v) land below))) ts)
      targets;
    for i = 0 to !ntn - 1 do
      tmask.(tnodes.(i)) <- 0
    done;
    if !Obs.metrics then begin
      Metrics.incr m_sweeps;
      Metrics.add m_words !words;
      Metrics.add m_visited !visited;
      Metrics.observe m_sweep_us (int_of_float (Obs.now_us () -. t_start))
    end;
    dist
  end

let to_targets ?(bound = max_int) g sources targets = sweep ~weighted:true ~bound g sources targets

let run ?(bound = max_int) (g : Csr.t) sources =
  let every = Array.init g.Csr.n Fun.id in
  sweep ~weighted:false ~bound g sources (Array.make (Array.length sources) every)

let batches n =
  if n <= 0 then [||]
  else begin
    let nb = ((n - 1) / width) + 1 in
    Array.init nb (fun b ->
        let lo = b * width in
        Array.init (min width (n - lo)) (fun i -> lo + i))
  end
