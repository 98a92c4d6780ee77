(* Flat Bigarray-backed CSR storage: the one representation that every
   traversal reads and that [Graph.t] commits its delta into.  The int arrays
   live outside the OCaml heap, so a 10^6-node graph costs exactly
   (n + 1) + 2m words and is never scanned by the GC. *)

type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { n : int; xadj : ba; adjncy : ba; weights : ba option; max_weight : int }

let make_ba len : ba = Bigarray.Array1.create Bigarray.Int Bigarray.c_layout len

let empty size =
  if size < 0 then invalid_arg "Csr.empty: negative size";
  let xadj = make_ba (size + 1) in
  Bigarray.Array1.fill xadj 0;
  { n = size; xadj; adjncy = make_ba 0; weights = None; max_weight = 1 }

let is_weighted t = t.weights <> None

let max_weight t = t.max_weight

let n t = t.n

let m t = Bigarray.Array1.dim t.adjncy / 2

let degree t v = t.xadj.{v + 1} - t.xadj.{v}

let check_node t v =
  if v < 0 || v >= t.n then invalid_arg "Csr: node out of range"

let iter_neighbors t v f =
  check_node t v;
  (* SAFETY: v is range-checked above, xadj has n+1 entries, and every xadj
     value is bounded by dim adjncy by construction, so all indices below are
     in range. *)
  let lo = Bigarray.Array1.unsafe_get t.xadj v
  and hi = Bigarray.Array1.unsafe_get t.xadj (v + 1) in
  for i = lo to hi - 1 do
    f (Bigarray.Array1.unsafe_get t.adjncy i)
  done

let fold_neighbors t v f init =
  check_node t v;
  let acc = ref init in
  iter_neighbors t v (fun u -> acc := f !acc u);
  !acc

(* Binary search for v in u's sorted row; index into adjncy, or -1.  Graph
   marks its deleted arcs by this index. *)
let find_arc t u v =
  check_node t u;
  check_node t v;
  let lo = ref t.xadj.{u} and hi = ref (t.xadj.{u + 1} - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    (* SAFETY: xadj.{u} <= lo <= mid <= hi < xadj.{u+1} <= dim adjncy, by the
       CSR construction invariant; rows are sorted ascending so the binary
       search is well-founded. *)
    let x = Bigarray.Array1.unsafe_get t.adjncy mid in
    if x = v then found := mid else if x < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let mem_edge t u v = find_arc t u v >= 0

let edge_weight t u v =
  let i = find_arc t u v in
  if i < 0 then invalid_arg "Csr.edge_weight: no such edge";
  match t.weights with None -> 1 | Some w -> w.{i}

let iter_neighbors_w t v f =
  check_node t v;
  (* SAFETY: v is range-checked above; xadj bounds index adjncy and the
     weights array has dim adjncy by construction. *)
  let lo = Bigarray.Array1.unsafe_get t.xadj v
  and hi = Bigarray.Array1.unsafe_get t.xadj (v + 1) in
  match t.weights with
  | None ->
      (* SAFETY: lo .. hi - 1 index adjncy as established above. *)
      for i = lo to hi - 1 do
        f (Bigarray.Array1.unsafe_get t.adjncy i) 1
      done
  | Some w ->
      (* SAFETY: lo .. hi - 1 index adjncy, and w has dim adjncy. *)
      for i = lo to hi - 1 do
        f (Bigarray.Array1.unsafe_get t.adjncy i) (Bigarray.Array1.unsafe_get w i)
      done

let iter_edges t f =
  for u = 0 to t.n - 1 do
    iter_neighbors t u (fun v -> if u < v then f u v)
  done

let iter_edges_w t f =
  for u = 0 to t.n - 1 do
    iter_neighbors_w t u (fun v w -> if u < v then f u v w)
  done

(* ---- tombstoned rows and the commit builder of Graph's delta log ---- *)

let check_dead t dead =
  if Bytes.length dead <> Bigarray.Array1.dim t.adjncy then
    invalid_arg "Csr: tombstone bytes do not match the arc count"

let iter_live_neighbors t ~dead v f =
  check_node t v;
  check_dead t dead;
  (* SAFETY: v is range-checked above and every xadj value is bounded by
     dim adjncy by construction. *)
  let lo = Bigarray.Array1.unsafe_get t.xadj v
  and hi = Bigarray.Array1.unsafe_get t.xadj (v + 1) in
  for i = lo to hi - 1 do
    (* SAFETY: lo <= i < hi <= dim adjncy = Bytes.length dead, checked above. *)
    if Bytes.unsafe_get dead i = '\000' then f (Bigarray.Array1.unsafe_get t.adjncy i)
  done

let iter_live_neighbors_w t ~dead v f =
  check_node t v;
  check_dead t dead;
  (* SAFETY: v is range-checked above and every xadj value is bounded by
     dim adjncy by construction. *)
  let lo = Bigarray.Array1.unsafe_get t.xadj v
  and hi = Bigarray.Array1.unsafe_get t.xadj (v + 1) in
  match t.weights with
  | None ->
      for i = lo to hi - 1 do
        (* SAFETY: lo <= i < hi <= dim adjncy = Bytes.length dead, checked above. *)
        if Bytes.unsafe_get dead i = '\000' then f (Bigarray.Array1.unsafe_get t.adjncy i) 1
      done
  | Some w ->
      for i = lo to hi - 1 do
        (* SAFETY: as above, and w has dim adjncy by construction. *)
        if Bytes.unsafe_get dead i = '\000' then
          f (Bigarray.Array1.unsafe_get t.adjncy i) (Bigarray.Array1.unsafe_get w i)
      done

(* Row offsets are the prefix sums of [deg]; row v is then written as
   [row v] emits it.  The emit checks each arc against its row's end, and
   each row is checked to fill its row exactly, so every write lands inside
   the row it belongs to. *)
let of_rows ~weighted deg row =
  let size = Array.length deg in
  let xadj = make_ba (size + 1) in
  xadj.{0} <- 0;
  Array.iteri
    (fun v d ->
      if d < 0 then invalid_arg "Csr.of_rows: negative degree";
      xadj.{v + 1} <- xadj.{v} + d)
    deg;
  let total = xadj.{size} in
  let adjncy = make_ba total and weights = if weighted then Some (make_ba total) else None in
  let p = ref 0 and hi = ref 0 and heaviest = ref 1 in
  let emit u w =
    if !p >= !hi then invalid_arg "Csr.of_rows: a row is longer than its degree";
    (* SAFETY: 0 <= p < hi = xadj.{v+1} <= total = dim adjncy: offsets are
       non-decreasing prefix sums of non-negative degrees. *)
    Bigarray.Array1.unsafe_set adjncy !p u;
    (match weights with
    | Some lane ->
        (* SAFETY: p < total as above, and the lane has dim total. *)
        Bigarray.Array1.unsafe_set lane !p w;
        if w > !heaviest then heaviest := w
    | None -> ());
    incr p
  in
  for v = 0 to size - 1 do
    hi := xadj.{v + 1};
    row v emit;
    if !p <> !hi then invalid_arg "Csr.of_rows: a row is shorter than its degree"
  done;
  { n = size; xadj; adjncy; weights; max_weight = !heaviest }

type producer =
  | Unit of ((int -> int -> unit) -> unit)
  | Weighted of ((int -> int -> int -> unit) -> unit)

(* O(m) construction by counting sort.  The producer pushes each undirected
   edge once; both arcs are recorded, arcs are grouped by destination with
   one counting sort, and a transpose scatter (destinations visited in
   ascending order) emits every row already sorted.  Duplicate edges land
   adjacently in their row and are dropped on the spot; self-loops are
   dropped at push.  A weighted producer carries one more word per arc, the
   weight lane, through the same passes; on unit builds the lane is empty
   and never read.  Both arcs of an edge record the same weight, so the
   min-wins dedupe is symmetric and the store stays canonical for a given
   weighted edge set. *)
let build ?m_hint ~n:size producer =
  if size < 0 then invalid_arg "Csr: negative size";
  let weighted = match producer with Unit _ -> false | Weighted _ -> true in
  let lane len = make_ba (if weighted then len else 0) in
  let cap = ref (max 64 (match m_hint with Some h -> 2 * h | None -> 64)) in
  let src = ref (make_ba !cap) and dst = ref (make_ba !cap) and wgt = ref (lane !cap) in
  let len = ref 0 in
  let grow () =
    let c = 2 * !cap in
    let widen a =
      let b = make_ba c in
      Bigarray.Array1.blit a (Bigarray.Array1.sub b 0 !cap);
      b
    in
    src := widen !src;
    dst := widen !dst;
    if weighted then wgt := widen !wgt;
    cap := c
  in
  let push u v =
    if !len = !cap then grow ();
    (* SAFETY: len < cap = dim of src and dst, ensured just above. *)
    Bigarray.Array1.unsafe_set !src !len u;
    Bigarray.Array1.unsafe_set !dst !len v;
    incr len
  in
  (match producer with
  | Unit produce ->
      produce (fun u v ->
          if u < 0 || u >= size || v < 0 || v >= size then
            invalid_arg "Csr.of_stream: node out of range";
          if u <> v then begin
            push u v;
            push v u
          end)
  | Weighted produce ->
      produce (fun u v w ->
          if u < 0 || u >= size || v < 0 || v >= size then
            invalid_arg "Csr.of_weighted_stream: node out of range";
          if w < 1 then invalid_arg "Csr.of_weighted_stream: weight must be positive";
          if u <> v then begin
            (* SAFETY: each push stores arc len - 1 < cap, and a weighted
               build widens wgt to cap together with src and dst. *)
            push u v;
            Bigarray.Array1.unsafe_set !wgt (!len - 1) w;
            push v u;
            Bigarray.Array1.unsafe_set !wgt (!len - 1) w
          end));
  let na = !len in
  let src = !src and dst = !dst and wgt = !wgt in
  (* Counting sort of the arcs by destination: start.{d} = first index of the
     dst-group d in by_src. *)
  let start = make_ba (size + 1) in
  Bigarray.Array1.fill start 0;
  for i = 0 to na - 1 do
    (* SAFETY: i < na = number of pushed arcs <= dim src/dst, and every pushed
       endpoint was range-checked at emit, so dst values index start. *)
    let d = Bigarray.Array1.unsafe_get dst i in
    Bigarray.Array1.unsafe_set start (d + 1) (Bigarray.Array1.unsafe_get start (d + 1) + 1)
  done;
  for d = 1 to size do
    start.{d} <- start.{d} + start.{d - 1}
  done;
  let by_src = make_ba na and by_w = lane na in
  let pos = make_ba (max size 1) in
  if size > 0 then Bigarray.Array1.blit (Bigarray.Array1.sub start 0 size) pos;
  for i = 0 to na - 1 do
    (* SAFETY: same bounds as the counting pass; pos.{d} walks the half-open
       dst-group [start.{d}, start.{d+1}) and so stays below na; the weight
       lanes have dim na on weighted builds, the only ones that touch them. *)
    let d = Bigarray.Array1.unsafe_get dst i in
    let p = Bigarray.Array1.unsafe_get pos d in
    Bigarray.Array1.unsafe_set by_src p (Bigarray.Array1.unsafe_get src i);
    if weighted then Bigarray.Array1.unsafe_set by_w p (Bigarray.Array1.unsafe_get wgt i);
    Bigarray.Array1.unsafe_set pos d (p + 1)
  done;
  (* Row offsets from raw (pre-dedup) source degrees. *)
  let xadj = make_ba (size + 1) in
  Bigarray.Array1.fill xadj 0;
  for i = 0 to na - 1 do
    let s = by_src.{i} in
    xadj.{s + 1} <- xadj.{s + 1} + 1
  done;
  for v = 1 to size do
    xadj.{v} <- xadj.{v} + xadj.{v - 1}
  done;
  (* Transpose scatter: visiting destinations in ascending order appends each
     row's neighbors in sorted order, so a duplicate edge is always adjacent
     to its first copy and can be dropped with one comparison; of weighted
     duplicates the lightest copy wins. *)
  let adjncy = make_ba na and weights = lane na in
  let next = make_ba (max size 1) in
  if size > 0 then Bigarray.Array1.blit (Bigarray.Array1.sub xadj 0 size) next;
  let dropped = ref 0 and heaviest = ref 1 in
  for d = 0 to size - 1 do
    for i = start.{d} to start.{d + 1} - 1 do
      (* SAFETY: i ranges over the dst-group of d, so i < na; s was
         range-checked at emit; next.{s} walks [xadj.{s}, xadj.{s+1}) and so
         stays below na = dim adjncy. *)
      let s = Bigarray.Array1.unsafe_get by_src i in
      let p = Bigarray.Array1.unsafe_get next s in
      if p > Bigarray.Array1.unsafe_get xadj s && Bigarray.Array1.unsafe_get adjncy (p - 1) = d
      then begin
        incr dropped;
        if weighted then begin
          (* SAFETY: xadj.{s} < p <= na bounds p - 1, and a weighted build's
             lanes have dim na. *)
          let w = Bigarray.Array1.unsafe_get by_w i in
          if w < Bigarray.Array1.unsafe_get weights (p - 1) then
            Bigarray.Array1.unsafe_set weights (p - 1) w
        end
      end
      else begin
        (* SAFETY: p < na as established above; s < size = dim next; a
           weighted build's lanes have dim na. *)
        Bigarray.Array1.unsafe_set adjncy p d;
        if weighted then begin
          let w = Bigarray.Array1.unsafe_get by_w i in
          Bigarray.Array1.unsafe_set weights p w;
          if w > !heaviest then heaviest := w
        end;
        Bigarray.Array1.unsafe_set next s (p + 1)
      end
    done
  done;
  let store xadj adjncy weights max_weight =
    { n = size; xadj; adjncy; weights = (if weighted then Some weights else None); max_weight }
  in
  (* with nothing dropped no kept weight was lowered, so the heaviest weight
     written is the heaviest arc; otherwise the compaction recounts it *)
  if !dropped = 0 then store xadj adjncy weights !heaviest
  else begin
    (* Some rows shrank: compact them left and rebuild the offsets. *)
    let kept = na - !dropped in
    let xadj2 = make_ba (size + 1) and adjncy2 = make_ba kept and weights2 = lane kept in
    heaviest := 1;
    xadj2.{0} <- 0;
    for v = 0 to size - 1 do
      let lo = xadj.{v} and hi = next.{v} in
      let o = xadj2.{v} in
      for i = lo to hi - 1 do
        adjncy2.{o + i - lo} <- adjncy.{i};
        if weighted then begin
          let w = weights.{i} in
          weights2.{o + i - lo} <- w;
          if w > !heaviest then heaviest := w
        end
      done;
      xadj2.{v + 1} <- o + (hi - lo)
    done;
    store xadj2 adjncy2 weights2 !heaviest
  end

let of_stream ?m_hint ~n produce = build ?m_hint ~n (Unit produce)

let of_weighted_stream ?m_hint ~n produce = build ?m_hint ~n (Weighted produce)
