(* Flat Bigarray-backed CSR storage: the primary representation behind both
   [Graph.t] snapshots and [Csr.t].  The int arrays live outside the OCaml
   heap, so a 10^6-node graph costs exactly (n + 1) + 2m words and never
   contributes to GC marking time. *)

type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = { n : int; xadj : ba; adjncy : ba; weights : ba option; max_weight : int }

let make_ba len : ba = Bigarray.Array1.create Bigarray.Int Bigarray.c_layout len

let empty size =
  if size < 0 then invalid_arg "Csr_store.empty: negative size";
  let xadj = make_ba (size + 1) in
  Bigarray.Array1.fill xadj 0;
  { n = size; xadj; adjncy = make_ba 0; weights = None; max_weight = 1 }

let is_weighted t = t.weights <> None

let max_weight t = t.max_weight

let n t = t.n

let arcs t = Bigarray.Array1.dim t.adjncy

let m t = arcs t / 2

let degree t v = t.xadj.{v + 1} - t.xadj.{v}

let check_node t v =
  if v < 0 || v >= t.n then invalid_arg "Csr_store: node out of range"

let iter_row t v f =
  check_node t v;
  (* SAFETY: v is range-checked above, xadj has n+1 entries, and every xadj
     value is bounded by dim adjncy by construction, so all indices below are
     in range. *)
  let lo = Bigarray.Array1.unsafe_get t.xadj v
  and hi = Bigarray.Array1.unsafe_get t.xadj (v + 1) in
  for i = lo to hi - 1 do
    f (Bigarray.Array1.unsafe_get t.adjncy i)
  done

let fold_row t v f init =
  check_node t v;
  let acc = ref init in
  iter_row t v (fun u -> acc := f !acc u);
  !acc

(* Binary search for v in u's sorted row; index into adjncy, or -1. *)
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

let mem t u v = find_arc t u v >= 0

let weight t u v =
  let i = find_arc t u v in
  if i < 0 then invalid_arg "Csr_store.weight: no such edge";
  match t.weights with None -> 1 | Some w -> w.{i}

let iter_row_w t v f =
  check_node t v;
  (* SAFETY: v is range-checked above; xadj bounds index adjncy and the
     weights array has dim adjncy by construction. *)
  let lo = Bigarray.Array1.unsafe_get t.xadj v
  and hi = Bigarray.Array1.unsafe_get t.xadj (v + 1) in
  (match t.weights with
  | None ->
      (* SAFETY: lo .. hi - 1 index adjncy as established above. *)
      for i = lo to hi - 1 do
        f (Bigarray.Array1.unsafe_get t.adjncy i) 1
      done
  | Some w ->
      (* SAFETY: lo .. hi - 1 index adjncy, and w has dim adjncy. *)
      for i = lo to hi - 1 do
        f (Bigarray.Array1.unsafe_get t.adjncy i) (Bigarray.Array1.unsafe_get w i)
      done)

(* O(m) construction by counting sort.  The stream pushes each undirected edge
   once; both arcs are recorded, arcs are grouped by destination with one
   counting sort, and a transpose scatter (destinations visited in ascending
   order) emits every row already sorted.  Duplicate edges land adjacently in
   their row and are dropped on the spot; self-loops are dropped at push. *)
let of_stream ?m_hint ~n:size emit_edges =
  if size < 0 then invalid_arg "Csr_store.of_stream: negative size";
  let cap = ref (max 64 (match m_hint with Some h -> 2 * h | None -> 64)) in
  let src = ref (make_ba !cap) and dst = ref (make_ba !cap) in
  let len = ref 0 in
  let grow () =
    let c = 2 * !cap in
    let s = make_ba c and d = make_ba c in
    Bigarray.Array1.blit !src (Bigarray.Array1.sub s 0 !cap);
    Bigarray.Array1.blit !dst (Bigarray.Array1.sub d 0 !cap);
    src := s;
    dst := d;
    cap := c
  in
  let push u v =
    if !len = !cap then grow ();
    (* SAFETY: len < cap = dim of both scratch arrays, ensured just above. *)
    Bigarray.Array1.unsafe_set !src !len u;
    Bigarray.Array1.unsafe_set !dst !len v;
    incr len
  in
  let emit u v =
    if u < 0 || u >= size || v < 0 || v >= size then
      invalid_arg "Csr_store.of_stream: node out of range";
    if u <> v then begin
      push u v;
      push v u
    end
  in
  emit_edges emit;
  let na = !len in
  let src = !src and dst = !dst in
  (* Counting sort of the arcs by destination: start.{d} = first index of the
     dst-group d in by_src. *)
  let start = make_ba (size + 1) in
  Bigarray.Array1.fill start 0;
  for i = 0 to na - 1 do
    (* SAFETY: i < na = number of pushed arcs <= dim src/dst, and every pushed
       endpoint was range-checked in emit, so dst values index start. *)
    let d = Bigarray.Array1.unsafe_get dst i in
    Bigarray.Array1.unsafe_set start (d + 1) (Bigarray.Array1.unsafe_get start (d + 1) + 1)
  done;
  for d = 1 to size do
    start.{d} <- start.{d} + start.{d - 1}
  done;
  let by_src = make_ba na in
  let pos = make_ba (max size 1) in
  if size > 0 then Bigarray.Array1.blit (Bigarray.Array1.sub start 0 size) pos;
  for i = 0 to na - 1 do
    (* SAFETY: same bounds as the counting pass; pos.{d} walks the half-open
       dst-group [start.{d}, start.{d+1}) and so stays below na. *)
    let d = Bigarray.Array1.unsafe_get dst i in
    let p = Bigarray.Array1.unsafe_get pos d in
    Bigarray.Array1.unsafe_set by_src p (Bigarray.Array1.unsafe_get src i);
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
     to its first copy and can be dropped with one comparison. *)
  let adjncy = make_ba na in
  let next = make_ba (max size 1) in
  if size > 0 then Bigarray.Array1.blit (Bigarray.Array1.sub xadj 0 size) next;
  let dropped = ref 0 in
  for d = 0 to size - 1 do
    for i = start.{d} to start.{d + 1} - 1 do
      (* SAFETY: i ranges over the dst-group of d, so i < na; s was
         range-checked in emit; next.{s} walks [xadj.{s}, xadj.{s+1}) and so
         stays below na. *)
      let s = Bigarray.Array1.unsafe_get by_src i in
      let p = Bigarray.Array1.unsafe_get next s in
      if p > Bigarray.Array1.unsafe_get xadj s && Bigarray.Array1.unsafe_get adjncy (p - 1) = d
      then incr dropped
      else begin
        Bigarray.Array1.unsafe_set adjncy p d;
        Bigarray.Array1.unsafe_set next s (p + 1)
      end
    done
  done;
  if !dropped = 0 then { n = size; xadj; adjncy; weights = None; max_weight = 1 }
  else begin
    (* Some rows shrank: compact them left and rebuild the offsets. *)
    let xadj2 = make_ba (size + 1) in
    let adjncy2 = make_ba (na - !dropped) in
    xadj2.{0} <- 0;
    for v = 0 to size - 1 do
      let lo = xadj.{v} and hi = next.{v} in
      let o = xadj2.{v} in
      for i = lo to hi - 1 do
        adjncy2.{o + i - lo} <- adjncy.{i}
      done;
      xadj2.{v + 1} <- o + (hi - lo)
    done;
    { n = size; xadj = xadj2; adjncy = adjncy2; weights = None; max_weight = 1 }
  end

(* Weighted variant of [of_stream]: the same counting-sort/transpose-scatter
   pipeline with one extra word per arc carried alongside.  Both arcs of an
   edge record the same weight, so the min-wins dedup below is symmetric and
   the resulting store stays canonical for a given weighted edge set. *)
let of_weighted_stream ?m_hint ~n:size emit_edges =
  if size < 0 then invalid_arg "Csr_store.of_weighted_stream: negative size";
  let cap = ref (max 64 (match m_hint with Some h -> 2 * h | None -> 64)) in
  let src = ref (make_ba !cap) and dst = ref (make_ba !cap) and wgt = ref (make_ba !cap) in
  let len = ref 0 in
  let grow () =
    let c = 2 * !cap in
    let s = make_ba c and d = make_ba c and w = make_ba c in
    Bigarray.Array1.blit !src (Bigarray.Array1.sub s 0 !cap);
    Bigarray.Array1.blit !dst (Bigarray.Array1.sub d 0 !cap);
    Bigarray.Array1.blit !wgt (Bigarray.Array1.sub w 0 !cap);
    src := s;
    dst := d;
    wgt := w;
    cap := c
  in
  let push u v w =
    if !len = !cap then grow ();
    (* SAFETY: len < cap = dim of all three scratch arrays, ensured above. *)
    Bigarray.Array1.unsafe_set !src !len u;
    Bigarray.Array1.unsafe_set !dst !len v;
    Bigarray.Array1.unsafe_set !wgt !len w;
    incr len
  in
  let emit u v w =
    if u < 0 || u >= size || v < 0 || v >= size then
      invalid_arg "Csr_store.of_weighted_stream: node out of range";
    if w < 1 then invalid_arg "Csr_store.of_weighted_stream: weight must be positive";
    if u <> v then begin
      push u v w;
      push v u w
    end
  in
  emit_edges emit;
  let na = !len in
  let src = !src and dst = !dst and wgt = !wgt in
  let start = make_ba (size + 1) in
  Bigarray.Array1.fill start 0;
  for i = 0 to na - 1 do
    (* SAFETY: i < na = number of pushed arcs <= dim src/dst/wgt, and every
       pushed endpoint was range-checked in emit, so dst values index start. *)
    let d = Bigarray.Array1.unsafe_get dst i in
    Bigarray.Array1.unsafe_set start (d + 1) (Bigarray.Array1.unsafe_get start (d + 1) + 1)
  done;
  for d = 1 to size do
    start.{d} <- start.{d} + start.{d - 1}
  done;
  let by_src = make_ba na and by_w = make_ba na in
  let pos = make_ba (max size 1) in
  if size > 0 then Bigarray.Array1.blit (Bigarray.Array1.sub start 0 size) pos;
  for i = 0 to na - 1 do
    (* SAFETY: same bounds as the counting pass; pos.{d} walks the half-open
       dst-group [start.{d}, start.{d+1}) and so stays below na. *)
    let d = Bigarray.Array1.unsafe_get dst i in
    let p = Bigarray.Array1.unsafe_get pos d in
    Bigarray.Array1.unsafe_set by_src p (Bigarray.Array1.unsafe_get src i);
    Bigarray.Array1.unsafe_set by_w p (Bigarray.Array1.unsafe_get wgt i);
    Bigarray.Array1.unsafe_set pos d (p + 1)
  done;
  let xadj = make_ba (size + 1) in
  Bigarray.Array1.fill xadj 0;
  for i = 0 to na - 1 do
    let s = by_src.{i} in
    xadj.{s + 1} <- xadj.{s + 1} + 1
  done;
  for v = 1 to size do
    xadj.{v} <- xadj.{v} + xadj.{v - 1}
  done;
  let adjncy = make_ba na and weights = make_ba na in
  let next = make_ba (max size 1) in
  if size > 0 then Bigarray.Array1.blit (Bigarray.Array1.sub xadj 0 size) next;
  let dropped = ref 0 and heaviest = ref 1 in
  for d = 0 to size - 1 do
    for i = start.{d} to start.{d + 1} - 1 do
      (* SAFETY: i ranges over the dst-group of d, so i < na; s was
         range-checked in emit; next.{s} walks [xadj.{s}, xadj.{s+1}) and so
         stays below na; weights has dim na. *)
      let s = Bigarray.Array1.unsafe_get by_src i in
      let w = Bigarray.Array1.unsafe_get by_w i in
      let p = Bigarray.Array1.unsafe_get next s in
      if p > Bigarray.Array1.unsafe_get xadj s && Bigarray.Array1.unsafe_get adjncy (p - 1) = d
      then begin
        (* Duplicate weighted edge: the lightest parallel copy wins.
           SAFETY: xadj.{s} < p <= next bound established above, and
           weights has dim na, so p - 1 is in range for both arrays. *)
        incr dropped;
        if w < Bigarray.Array1.unsafe_get weights (p - 1) then
          Bigarray.Array1.unsafe_set weights (p - 1) w
      end
      else begin
        (* SAFETY: p walks [xadj.{s}, xadj.{s+1}) and so stays below na =
           dim adjncy = dim weights; s < size = dim next. *)
        Bigarray.Array1.unsafe_set adjncy p d;
        Bigarray.Array1.unsafe_set weights p w;
        Bigarray.Array1.unsafe_set next s (p + 1);
        if w > !heaviest then heaviest := w
      end
    done
  done;
  (* with nothing dropped no kept weight was lowered, so the heaviest weight
     written is the heaviest arc; otherwise the compaction recounts it *)
  if !dropped = 0 then { n = size; xadj; adjncy; weights = Some weights; max_weight = !heaviest }
  else begin
    heaviest := 1;
    let xadj2 = make_ba (size + 1) in
    let adjncy2 = make_ba (na - !dropped) in
    let weights2 = make_ba (na - !dropped) in
    xadj2.{0} <- 0;
    for v = 0 to size - 1 do
      let lo = xadj.{v} and hi = next.{v} in
      let o = xadj2.{v} in
      for i = lo to hi - 1 do
        let w = weights.{i} in
        adjncy2.{o + i - lo} <- adjncy.{i};
        weights2.{o + i - lo} <- w;
        if w > !heaviest then heaviest := w
      done;
      xadj2.{v + 1} <- o + (hi - lo)
    done;
    { n = size; xadj = xadj2; adjncy = adjncy2; weights = Some weights2; max_weight = !heaviest }
  end

let iter_edges t f =
  for u = 0 to t.n - 1 do
    iter_row t u (fun v -> if u < v then f u v)
  done

let iter_edges_w t f =
  for u = 0 to t.n - 1 do
    iter_row_w t u (fun v w -> if u < v then f u v w)
  done
