(* The removed edges of a spanner cluster heavily by endpoint: a node that
   lost one of its Delta edges typically lost Theta(Delta) of them.  Grouping
   the removed edges by source answers all of a source's edges from ONE
   bounded sweep — a Delta-factor fewer sweeps than the per-edge path — and
   up to [Bfs_batch.width] of those sweeps run at once.

   Every entry point is a fold over one kernel: [removed_by_source] builds
   the groups, [rows] is the only place a traversal is picked, [verdict]
   judges one group and [sweep] drives the work units.  Weighted pairs run
   the same batched kernel, whose ring of pending levels measures weighted
   distance; only an H with arcs too heavy for that ring takes a
   target-only Dijkstra per group.  The weighted stretch of a removed edge
   is [⌈d_H(u,v) / w(u,v)⌉], so "stretch ≤ bound" and "d_H ≤ bound·w"
   agree.  [exact_reference] keeps the per-edge scalar path as the oracle
   of the property tests and the kernel bench. *)

let weighted g h = Graph.is_weighted g || Graph.is_weighted h

let ratio_ceil d w = (d + w - 1) / w

(* [bound·w] saturating at [max_int] (both factors are >= 1) *)
let scaled bound w = if bound > max_int / w then max_int else bound * w

(* Per-domain stamp arena for the grouping and the dirty-ball search.  Each
   use takes a fresh stamp, so nothing is ever cleared: [x] belongs to the
   set stamped [s] iff [mark.(x) = s].  [hops]/[queue] serve the BFS of
   {!within_bound}. *)
type arena = {
  mutable stamp : int;
  mutable mark : int array;
  mutable hops : int array;
  mutable queue : int array;
}

let arena_key =
  Domain.DLS.new_key (fun () -> { stamp = 0; mark = [||]; hops = [||]; queue = [||] })

let arena n =
  let a = Domain.DLS.get arena_key in
  if Array.length a.mark < n then begin
    a.mark <- Array.make n 0;
    a.hops <- Array.make n 0;
    a.queue <- Array.make n 0
  end;
  a

let fresh_stamp a =
  a.stamp <- a.stamp + 1;
  a.stamp

(* Source [u]'s removed edges: its G-neighbours [v > u] that H lacks, as
   [(targets, weights)] with [weights = [||]] on a unit-weight pair.  G is
   read in place through {!Graph.iter_neighbors_w}, so certifying never
   pays for committing g's delta; H's membership is one stamp of its
   snapshot row, not a hashed probe per G edge. *)
let group_of a g hc ~weighted u =
  let s = fresh_stamp a in
  let mark = a.mark in
  Csr.iter_neighbors hc u (fun x -> mark.(x) <- s);
  let vs = ref [] and ws = ref [] in
  Graph.iter_neighbors_w g u (fun v w ->
      if v > u && mark.(v) <> s then begin
        vs := v :: !vs;
        if weighted then ws := w :: !ws
      end);
  (Array.of_list !vs, Array.of_list !ws)

(* Removed edges grouped by their smaller endpoint, sources ascending.  Each
   group is [(u, targets, weights)] where [weights.(i)] is the weight of
   [(u, targets.(i))] on a weighted pair and [weights = [||]] on a
   unit-weight one; the pair's weightedness comes first.  [hc] must be
   [Graph.snapshot h]. *)
let removed_by_source g h hc =
  let weighted = weighted g h and n = Graph.n g in
  let a = arena n in
  let groups = ref [] in
  for u = n - 1 downto 0 do
    let targets, weights = group_of a g hc ~weighted u in
    if Array.length targets > 0 then groups := (u, targets, weights) :: !groups
  done;
  (weighted, Array.of_list !groups)

let group_wmax (_, _, ws) = Array.fold_left max 1 ws

(* The one place a traversal is picked: target distances for the [len]
   groups from [lo], entry [i] of a group's row being the distance to its
   target [i].  A batched unit runs one bit-parallel [Bfs_batch.to_targets]
   over its sources, weighted or not, each source stopping once it has met
   all of its targets or at level [bound·w_max], [w_max] being the
   heaviest removed edge among the unit's groups (1 on unit weights): a
   target within its own bound [bound·w] gets its exact distance, and a
   violating one reads [-1] or more than [bound·w], exactly as a sweep at
   its own bound would report it.  When H's arcs are too heavy for the
   kernel's ring, each group runs a target-only Dijkstra at its own
   [bound·w_max].  Both kernels saturate: [scaled] never overflows. *)
let rows hc groups ~batched ~bound ~lo ~len =
  let group i = groups.(lo + i) in
  if batched then begin
    let wmax = ref 1 in
    for i = 0 to len - 1 do
      wmax := max !wmax (group_wmax (group i))
    done;
    Bfs_batch.to_targets ~bound:(scaled bound !wmax) hc
      (Array.init len (fun i ->
           let u, _, _ = group i in
           u))
      (Array.init len (fun i ->
           let _, targets, _ = group i in
           targets))
  end
  else
    Array.init len (fun i ->
        let ((u, targets, _) as grp) = group i in
        Dijkstra.to_targets hc u targets ~bound:(scaled bound (group_wmax grp)))

(* The one per-group verdict, handed to [f u worst bad]: the worst [⌈d/w⌉]
   over the group's targets ([dist.(i)] is the distance to target [i]) and
   its violating pairs — unreachable, or [d > bound·w], which for integers
   is [⌈d/w⌉ > bound] and so never forms the product.  The worst is
   [max_int] once some target violates.  Unit vs weighted is decided once
   per group, so the unit-weight target loop divides and allocates nothing
   on the clean path. *)
let verdict ~bound dist (u, targets, ws) f =
  let worst = ref 1 and bad = ref [] in
  if Array.length ws = 0 then
    for i = 0 to Array.length targets - 1 do
      let d = dist.(i) in
      if d < 0 || d > bound then begin
        worst := max_int;
        bad := (u, targets.(i)) :: !bad
      end
      else if d > !worst then worst := d
    done
  else
    for i = 0 to Array.length targets - 1 do
      let d = dist.(i) in
      let r = ratio_ceil d ws.(i) in
      if d < 0 || r > bound then begin
        worst := max_int;
        bad := (u, targets.(i)) :: !bad
      end
      else if r > !worst then worst := r
    done;
  f u !worst !bad

(* The one sweep loop: runs [groups] in work units — [Bfs_batch.width] groups
   per batched sweep whenever H's heaviest arc fits the kernel's ring
   (always on unit weights), one group per Dijkstra run otherwise — over
   {!Parallel.max_range_saturating}, hands each group's verdict to [f] and
   returns the max of [f]'s results (1 when there are no groups).  A result
   of [max_int] stops the sweep early; with [~domains:1] the units run in
   order on the calling domain.  [weighted] names the span only. *)
let sweep ?domains hc groups ~weighted ~bound f =
  let batched = Csr.max_weight hc <= Bfs_batch.ring_max in
  let width = if batched then Bfs_batch.width else 1 in
  let ng = Array.length groups in
  let sweep_unit b =
    let lo = b * width in
    let len = min width (ng - lo) in
    let rows = rows hc groups ~batched ~bound ~lo ~len in
    let acc = ref 1 in
    for i = 0 to len - 1 do
      let r = verdict ~bound rows.(i) groups.(lo + i) f in
      if r > !acc then acc := r
    done;
    !acc
  in
  Trace.with_span
    ~name:(if weighted then "dijkstra.sweep" else "bfs.sweep")
    (fun () ->
      max 1
        (Parallel.max_range_saturating ?domains ((ng + width - 1) / width) sweep_unit
           ~saturate:max_int))

let snapshot_of h = function Some c -> c | None -> Graph.snapshot h

let certify ?domains ?snapshot g h ~bound =
  Trace.with_span ~name:"spanner.certify" (fun () ->
      let hc = snapshot_of h snapshot in
      let weighted, groups = removed_by_source g h hc in
      sweep ?domains hc groups ~weighted ~bound (fun _ worst _ -> worst))

let exact ?snapshot g h = certify ~domains:1 ?snapshot g h ~bound:max_int

let exact_parallel ?domains ?(bound = max_int) ?snapshot g h =
  certify ?domains ?snapshot g h ~bound

let exact_bounded ?snapshot g h ~bound = certify ~domains:1 ?snapshot g h ~bound

let exact_reference ?(bound = max_int) g h =
  let hc = Graph.snapshot h in
  if weighted g h then begin
    let worst = ref 1 in
    (try
       Graph.iter_edges_w g (fun u v w ->
           if not (Graph.mem_edge h u v) then begin
             let d = Dijkstra.distance_bounded hc u v ~bound:(scaled bound w) in
             if d < 0 then begin
               worst := max_int;
               raise Exit
             end;
             worst := max !worst (ratio_ceil d w)
           end)
     with Exit -> ());
    !worst
  end
  else begin
    let worst = ref 1 in
    (try
       Graph.iter_edges g (fun u v ->
           if not (Graph.mem_edge h u v) then begin
             let d = Bfs.distance_bounded hc u v ~bound in
             if d < 0 then begin
               worst := max_int;
               raise Exit
             end;
             worst := max !worst d
           end)
     with Exit -> ());
    !worst
  end

let is_three_spanner g h = exact_bounded g h ~bound:3 <= 3

let sampled_pairs ?snapshots rng g h ~samples =
  let gc, hc =
    match snapshots with Some p -> p | None -> (Graph.snapshot g, Graph.snapshot h)
  in
  let n = Graph.n g in
  if n < 2 then 1.0
  else begin
    (* same draw sequence either way; only the kernel differs *)
    let dist = if weighted g h then Dijkstra.distance else Bfs.distance in
    let worst = ref 1.0 in
    for _ = 1 to samples do
      let u = Prng.int rng n in
      let v = Prng.int rng n in
      if u <> v then begin
        let dg = dist gc u v in
        if dg > 0 then begin
          let dh = dist hc u v in
          let ratio =
            if dh < 0 then infinity else float_of_int dh /. float_of_int dg
          in
          worst := max !worst ratio
        end
      end
    done;
    !worst
  end

let violations g h ~bound =
  let hc = Graph.snapshot h in
  let weighted, groups = removed_by_source g h hc in
  let bad = ref [] in
  (* [f] returns 1, never [max_int], so every group is swept *)
  ignore
    (sweep ~domains:1 hc groups ~weighted ~bound (fun _ _ b ->
         bad := List.rev_append b !bad;
         1));
  (* canonical order: callers (Repair, reports) must not depend on hashtable
     iteration order *)
  List.sort compare !bad

(* ---- incremental certification (the churn seam) ---- *)

(* Per-source cache of the bounded certificate.  After a localized mutation
   batch, a source group's verdict can only change if the group's removed-
   edge set changed (then an endpoint of the change was touched) or if the
   bounded distance to some target changed.  In the latter case a shortest
   path realizing the smaller of the old and new distances (weight <=
   bound·w, hence at most bound·w <= bound·w_max edges, weights being >= 1)
   uses a changed edge, and its prefix up to the FIRST changed edge
   survives in the new spanner — so the source lies within [bound·w_max]
   hops of a touched node in the new spanner ([bound] on unit weights).
   Hence one multi-seed bounded sweep from the touched set marks every
   source whose cached verdict could be stale, and only those groups are
   swept again. *)

type cert = {
  c_bound : int;
  c_worst : int array;
      (* worst bounded stretch per source group; 1 when the source has no
         group, [max_int] when some target violates the bound *)
  c_viol : (int * int) list array;  (* violating pairs per source, ascending *)
  c_wmax : int array;
      (* per source: 0 when it has no group, else the group's heaviest
         removed edge (1 on unit weights) *)
  mutable c_groups : int;  (* sources with a group, as of the last refresh *)
}

type inc_report = {
  inc_violations : (int * int) list;
  inc_swept : int;
  inc_groups : int;
  inc_dirty : int;
}

let m_inc_swept = Metrics.counter "stretch.inc_swept"
let m_inc_reused = Metrics.counter "stretch.inc_reused"

(* the [f] of {!sweep} that caches each group's verdict in [cert]; never
   stops the sweep *)
let record cert =
  let { c_worst; c_viol; _ } = cert in
  fun u worst bad ->
    c_worst.(u) <- worst;
    c_viol.(u) <- List.sort compare bad;
    1

(* caches the presence and heaviest edge of source [u]'s group *)
let note_group cert u (targets, weights) =
  let had = cert.c_wmax.(u) > 0 and has = Array.length targets > 0 in
  cert.c_wmax.(u) <- (if has then Array.fold_left max 1 weights else 0);
  if has && not had then cert.c_groups <- cert.c_groups + 1
  else if had && not has then cert.c_groups <- cert.c_groups - 1

let cert_create ?snapshot g h ~bound =
  if Graph.n g <> Graph.n h then invalid_arg "Stretch.cert_create: node counts differ";
  if bound < 1 then invalid_arg "Stretch.cert_create: bound < 1";
  Trace.with_span ~name:"spanner.certify_incremental" (fun () ->
      let hc = snapshot_of h snapshot in
      let n = Graph.n g in
      let weighted, groups = removed_by_source g h hc in
      let c_wmax = Array.make n 0 in
      Array.iter (fun ((u, _, _) as grp) -> c_wmax.(u) <- group_wmax grp) groups;
      let cert =
        {
          c_bound = bound;
          c_worst = Array.make n 1;
          c_viol = Array.make n [];
          c_wmax;
          c_groups = Array.length groups;
        }
      in
      ignore (sweep ~domains:1 hc groups ~weighted ~bound (record cert));
      cert)

let cert_bound cert = cert.c_bound

let cert_groups cert = cert.c_groups

let cert_violations cert =
  let bad = ref [] in
  for u = Array.length cert.c_viol - 1 downto 0 do
    bad := cert.c_viol.(u) @ !bad
  done;
  !bad

let cert_stretch_bound cert = Array.fold_left max 1 cert.c_worst

(* the nodes within [bound] hops of any seed in [hc] (multi-seed bounded
   BFS on the arena), in discovery order; the seeds themselves are always
   included, even when isolated *)
let within_bound a hc seeds ~bound =
  let s = fresh_stamp a in
  let mark = a.mark and hops = a.hops and queue = a.queue in
  let tail = ref 0 in
  Array.iter
    (fun v ->
      if mark.(v) <> s then begin
        mark.(v) <- s;
        hops.(v) <- 0;
        queue.(!tail) <- v;
        incr tail
      end)
    seeds;
  let head = ref 0 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    if hops.(v) < bound then
      Csr.iter_neighbors hc v (fun u ->
          if mark.(u) <> s then begin
            mark.(u) <- s;
            hops.(u) <- hops.(v) + 1;
            queue.(!tail) <- u;
            incr tail
          end)
  done;
  Array.sub queue 0 !tail

let violations_incremental cert ?snapshot g h ~touched =
  let n = Graph.n g in
  if Graph.n h <> n then invalid_arg "Stretch.violations_incremental: node counts differ";
  if n <> Array.length cert.c_worst then
    invalid_arg "Stretch.violations_incremental: certificate built for a different node count";
  if Array.exists (fun v -> v < 0 || v >= n) touched then
    invalid_arg "Stretch.violations_incremental: touched node out of range";
  Trace.with_span ~name:"spanner.certify_incremental" (fun () ->
      let hc = snapshot_of h snapshot in
      let weighted = weighted g h in
      let a = arena n in
      (* a group changes only with an edge at its source, and that source is
         touched: regrouping the touched sources brings every cached
         presence and weight up to date *)
      Array.iter (fun u -> note_group cert u (group_of a g hc ~weighted u)) touched;
      let wmax = if weighted then Array.fold_left max 1 cert.c_wmax else 1 in
      let dirty = within_bound a hc touched ~bound:(scaled cert.c_bound wmax) in
      (* a dirty source whose group shrank or vanished must not keep stale
         entries; clean sources kept their groups, so their cache lines are
         current *)
      Array.iter
        (fun v ->
          cert.c_worst.(v) <- 1;
          cert.c_viol.(v) <- [])
        dirty;
      Array.sort Int.compare dirty;
      let regroup u acc =
        if cert.c_wmax.(u) = 0 then acc
        else
          let targets, weights = group_of a g hc ~weighted u in
          (u, targets, weights) :: acc
      in
      let pending = Array.of_list (Array.fold_right regroup dirty []) in
      let swept = Array.length pending in
      ignore (sweep ~domains:1 hc pending ~weighted ~bound:cert.c_bound (record cert));
      Metrics.add m_inc_swept swept;
      Metrics.add m_inc_reused (cert.c_groups - swept);
      (* only current sources hold violations: a vanished group's source was
         touched, hence dirty and reset above *)
      let inc_violations = cert_violations cert in
      { inc_violations; inc_swept = swept; inc_groups = cert.c_groups; inc_dirty = Array.length dirty })
