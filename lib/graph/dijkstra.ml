(* Binary-heap Dijkstra over (optionally weighted) CSR snapshots — the
   weighted counterpart of [Bfs].  The heap is a pair of flat int arrays
   (tentative distance / node) with lazy deletion: a relaxation pushes a new
   entry instead of decreasing a key, and stale entries are skipped at pop
   because their recorded distance no longer matches [dist].  On unweighted
   stores every arc costs 1, so the results coincide with [Bfs] — that
   property is the cross-kernel oracle used by the test suite.  A run stops
   at its bound, or once its callback has seen every node it needs: the
   point queries stop at their target, [to_targets] at its last target.

   Counters are batched like in [Bfs]: tallied into locals, flushed once per
   run. *)

let m_runs = Metrics.counter "dijkstra.runs"
let m_settled = Metrics.counter "dijkstra.nodes_settled"
let m_heap = Metrics.gauge "dijkstra.heap_peak"

(* Per-domain scratch arena in the style of [Bfs.Scratch]: dist/stamp are
   epoch-stamped so reuse needs no O(n) clear, and the heap arrays persist
   across runs (growing monotonically), so the steady state allocates
   nothing.  Domains spawned by [Parallel] get fresh arenas. *)
module Scratch = struct
  type t = {
    mutable dist : int array;
    mutable stamp : int array;
    mutable tmark : int array;
        (* {!to_targets}: [epoch] on a target not yet settled, [-epoch] on
           a settled one *)
    mutable hd : int array;  (* heap: tentative distances *)
    mutable hv : int array;  (* heap: nodes, parallel to [hd] *)
    mutable epoch : int;
  }

  let m_reuses = Metrics.counter "dijkstra.scratch_reuses"

  let key =
    Domain.DLS.new_key (fun () ->
        { dist = [||]; stamp = [||]; tmark = [||]; hd = [||]; hv = [||]; epoch = 0 })

  let get n =
    let s = Domain.DLS.get key in
    if Array.length s.dist < n then begin
      s.dist <- Array.make n 0;
      s.stamp <- Array.make n (-1);
      s.tmark <- Array.make n 0;
      if Array.length s.hd < n then begin
        s.hd <- Array.make (max n 16) 0;
        s.hv <- Array.make (max n 16) 0
      end;
      s.epoch <- 0
    end
    else Metrics.incr m_reuses;
    s.epoch <- s.epoch + 1;
    s
end

let check_source g s = if s < 0 || s >= Csr.n g then invalid_arg "Dijkstra: source out of range"

(* Core run on the arena [sc] (the caller's [Scratch.get]) from a checked
   source: settle nodes in nondecreasing distance order, calling [settle v
   d] once per node, stopping once a popped distance exceeds [bound] (every
   remaining node is then farther than [bound]) or [settle] returns [true].
   Every exit flushes the counters. *)
let run sc g s ~bound ~settle =
  let dist = sc.Scratch.dist and stamp = sc.Scratch.stamp and ep = sc.Scratch.epoch in
  let hd = ref sc.Scratch.hd and hv = ref sc.Scratch.hv in
  let size = ref 0 in
  let heap_peak = ref 0 in
  let grow () =
    let c = 2 * Array.length !hd in
    let d2 = Array.make c 0 and v2 = Array.make c 0 in
    Array.blit !hd 0 d2 0 !size;
    Array.blit !hv 0 v2 0 !size;
    hd := d2;
    hv := v2;
    sc.Scratch.hd <- d2;
    sc.Scratch.hv <- v2
  in
  let push d v =
    if !size = Array.length !hd then grow ();
    let hd = !hd and hv = !hv in
    let i = ref !size in
    incr size;
    if !size > !heap_peak then heap_peak := !size;
    (* Sift up. SAFETY: 0 <= parent < i < size <= length hd = length hv
       throughout, so all heap indices below are in range. *)
    let continue_ = ref true in
    while !continue_ && !i > 0 do
      let p = (!i - 1) / 2 in
      if Array.unsafe_get hd p > d then begin
        Array.unsafe_set hd !i (Array.unsafe_get hd p);
        Array.unsafe_set hv !i (Array.unsafe_get hv p);
        i := p
      end
      else continue_ := false
    done;
    (* SAFETY: i only moved to in-range parent slots, so i < size <= length. *)
    Array.unsafe_set hd !i d;
    Array.unsafe_set hv !i v
  in
  let pop_to = ref 0 and pop_node = ref 0 in
  let pop () =
    let hd = !hd and hv = !hv in
    pop_to := hd.(0);
    pop_node := hv.(0);
    decr size;
    if !size > 0 then begin
      let d = hd.(!size) and v = hv.(!size) in
      (* Sift down. SAFETY: i and its children are always < size <= length. *)
      let i = ref 0 in
      let continue_ = ref true in
      while !continue_ do
        let l = (2 * !i) + 1 in
        if l >= !size then continue_ := false
        else begin
          (* SAFETY: l < size and (when inspected) l + 1 < size, and i < size
             by the loop invariant, with size <= length hd = length hv. *)
          let c =
            if l + 1 < !size && Array.unsafe_get hd (l + 1) < Array.unsafe_get hd l then l + 1
            else l
          in
          if Array.unsafe_get hd c < d then begin
            Array.unsafe_set hd !i (Array.unsafe_get hd c);
            Array.unsafe_set hv !i (Array.unsafe_get hv c);
            i := c
          end
          else continue_ := false
        end
      done;
      (* SAFETY: i only moved to in-range child slots, so i < size <= length. *)
      Array.unsafe_set hd !i d;
      Array.unsafe_set hv !i v
    end
  in
  let xadj = g.Csr.xadj and adjncy = g.Csr.adjncy in
  let consider u nd =
    if stamp.(u) <> ep || nd < dist.(u) then begin
      stamp.(u) <- ep;
      dist.(u) <- nd;
      push nd u
    end
  in
  let relax =
    match g.Csr.weights with
    | None ->
        fun v dv ->
          (* SAFETY: v was range-checked when pushed; xadj has n+1 entries and
             bounds adjncy by the CSR construction invariant. *)
          let lo = Bigarray.Array1.unsafe_get xadj v
          and hi = Bigarray.Array1.unsafe_get xadj (v + 1) in
          for i = lo to hi - 1 do
            consider (Bigarray.Array1.unsafe_get adjncy i) (dv + 1)
          done
    | Some w ->
        fun v dv ->
          (* SAFETY: same bounds as above; the weight array has dim adjncy. *)
          let lo = Bigarray.Array1.unsafe_get xadj v
          and hi = Bigarray.Array1.unsafe_get xadj (v + 1) in
          for i = lo to hi - 1 do
            consider
              (Bigarray.Array1.unsafe_get adjncy i)
              (dv + Bigarray.Array1.unsafe_get w i)
          done
  in
  stamp.(s) <- ep;
  dist.(s) <- 0;
  push 0 s;
  let settled = ref 0 in
  let finished = ref false in
  while (not !finished) && !size > 0 do
    pop ();
    let d = !pop_to and v = !pop_node in
    (* Lazy deletion: an entry is live iff it still matches the tentative
       distance.  A node's live entry is popped exactly once, since pushes
       for a node carry strictly decreasing distances. *)
    if d = dist.(v) && stamp.(v) = ep then begin
      if d > bound then finished := true
      else begin
        incr settled;
        if settle v d then finished := true else relax v d
      end
    end
  done;
  if !Obs.metrics then begin
    Metrics.incr m_runs;
    Metrics.add m_settled !settled;
    Metrics.set_gauge m_heap !heap_peak
  end

let distances_bounded g s ~bound =
  check_source g s;
  let out = Array.make (Csr.n g) (-1) in
  run (Scratch.get (Csr.n g)) g s ~bound ~settle:(fun v d ->
      out.(v) <- d;
      false);
  out

let distances g s = distances_bounded g s ~bound:max_int

let distance_bounded g u v ~bound =
  if u = v then 0
  else begin
    check_source g u;
    let res = ref (-1) in
    run (Scratch.get (Csr.n g)) g u ~bound ~settle:(fun x d ->
        if x = v then res := d;
        x = v);
    !res
  end

let distance g u v = distance_bounded g u v ~bound:max_int

let to_targets g s targets ~bound =
  check_source g s;
  let n = Csr.n g in
  if not (Array.for_all (fun v -> v >= 0 && v < n) targets) then
    invalid_arg "Dijkstra.to_targets: target out of range";
  let out = Array.make (Array.length targets) (-1) in
  if Array.length targets > 0 then begin
    let sc = Scratch.get n in
    let ep = sc.Scratch.epoch and tmark = sc.Scratch.tmark in
    let left = ref 0 (* distinct targets not yet settled *) in
    Array.iter
      (fun v ->
        if tmark.(v) <> ep then begin
          tmark.(v) <- ep;
          incr left
        end)
      targets;
    run sc g s ~bound ~settle:(fun v _ ->
        if tmark.(v) <> ep then false
        else begin
          tmark.(v) <- -ep;
          decr left;
          !left = 0
        end);
    let dist = sc.Scratch.dist in
    Array.iteri (fun i v -> if tmark.(v) = -ep then out.(i) <- dist.(v)) targets
  end;
  out
