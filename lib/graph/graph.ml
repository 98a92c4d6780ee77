(* Delta-log graph over an immutable Bigarray CSR base.

   The committed edge set lives in [base] (a Csr.t); mutations are recorded
   in a small delta: per node, one flat buffer of the node's added
   (neighbour, weight) pairs, ascending by neighbour, and, while deletions
   are pending, one tombstone byte per arc of the base ([dead], found
   through Csr.find_arc).  A row reads as the ascending merge of the base
   row minus its tombstoned arcs with the node's buffer, so every read is
   ascending whatever the commit history.  Once the delta reaches half the
   base size it is committed: Csr.of_rows writes each row through that same
   read into a new store, which changes the layout and nothing a read
   returns.  The growth policy is geometric, so a build-by-add_edge of m
   edges costs O(m) total. *)

type csr = Csr.t

type t = {
  mutable base : csr;  (* committed snapshot of the edge set *)
  mutable adds : int array array;
      (* delta: per node, the added edges as (neighbour, weight) pairs
         ascending by neighbour, pair i at [2i] and [2i + 1]; like [dead],
         allocated at the first addition and empty again after a commit *)
  mutable adds_len : int array;  (* delta: pairs in use in each node's buffer *)
  mutable nadded : int;  (* delta: edges present but not in base *)
  mutable dead : Bytes.t;
      (* delta: a nonzero byte per hidden base arc, both arcs of an edge;
         one byte per arc of [base] while [ndead > 0], allocated at the first
         deletion and empty again after a commit *)
  mutable ndead : int;  (* base edges currently hidden *)
  deg : int array;  (* maintained degrees *)
  mutable m : int;
  mutable nonunit : int;  (* live edges whose weight is not 1 *)
  mutable version : int;  (* bumped on every successful mutation *)
  mutable snap : (int * csr) option;  (* snapshot + the version it captured *)
}

type edge = int * int

let create size =
  if size < 0 then invalid_arg "Graph.create: negative size";
  {
    base = Csr.empty size;
    adds = [||];
    adds_len = [||];
    nadded = 0;
    dead = Bytes.empty;
    ndead = 0;
    deg = Array.make size 0;
    m = 0;
    nonunit = 0;
    version = 0;
    snap = None;
  }

let n g = Csr.n g.base

let m g = g.m

let check_node g v =
  if v < 0 || v >= n g then invalid_arg "Graph: node out of range"

let arc_weight g i = match g.base.Csr.weights with None -> 1 | Some w -> w.{i}

let is_dead g i = g.ndead > 0 && Bytes.get g.dead i <> '\000'

(* index of u's base arc to v, or -1 when the edge is absent from the base
   or tombstoned *)
let live_arc g u v =
  let i = Csr.find_arc g.base u v in
  if i >= 0 && is_dead g i then -1 else i

(* pairs in v's buffer *)
let adds_at g v = if Array.length g.adds_len = 0 then 0 else g.adds_len.(v)

(* the first pair of v's buffer whose neighbour is >= x: the pair count when
   x exceeds them all, which makes an ascending pass of additions appends *)
let add_slot g v x =
  let k = adds_at g v in
  if k = 0 || g.adds.(v).(2 * (k - 1)) < x then k
  else begin
    let a = g.adds.(v) and lo = ref 0 and hi = ref (k - 1) in
    (* pairs below lo are < x, pair hi is >= x *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(2 * mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  end

(* the pair of v's buffer holding neighbour x, or -1 *)
let find_add g v x =
  let i = add_slot g v x in
  if i < adds_at g v && g.adds.(v).(2 * i) = x then i else -1

let mem_edge g u v =
  check_node g u;
  check_node g v;
  u <> v && (live_arc g u v >= 0 || find_add g u v >= 0)

let degree g v =
  check_node g v;
  g.deg.(v)

(* the committed row of v minus its tombstoned arcs *)
let iter_base g v f =
  if g.ndead = 0 then Csr.iter_neighbors g.base v f
  else Csr.iter_live_neighbors g.base ~dead:g.dead v f

let iter_base_w g v f =
  if g.ndead = 0 then Csr.iter_neighbors_w g.base v f
  else Csr.iter_live_neighbors_w g.base ~dead:g.dead v f

(* the live base row merged with v's buffer; an addition never repeats a
   live base arc *)
let iter_neighbors_w g v f =
  check_node g v;
  let k = adds_at g v in
  if k = 0 then iter_base_w g v f
  else begin
    let a = g.adds.(v) and j = ref 0 in
    let below u =
      while !j < k && a.(2 * !j) < u do
        f a.(2 * !j) a.((2 * !j) + 1);
        incr j
      done
    in
    iter_base_w g v (fun u w ->
        below u;
        f u w);
    below max_int
  end

let iter_neighbors g v f =
  check_node g v;
  if adds_at g v = 0 then iter_base g v f else iter_neighbors_w g v (fun u _ -> f u)

let is_weighted g = g.nonunit > 0

let edge_weight g u v =
  check_node g u;
  check_node g v;
  if u = v then invalid_arg "Graph.edge_weight: no such edge";
  let i = live_arc g u v in
  if i >= 0 then arc_weight g i
  else
    let j = find_add g u v in
    if j >= 0 then g.adds.(u).((2 * j) + 1) else invalid_arg "Graph.edge_weight: no such edge"

let neighbors g v =
  let acc = ref [] in
  iter_neighbors g v (fun u -> acc := u :: !acc);
  !acc

let fold_neighbors g v f init =
  check_node g v;
  let acc = ref init in
  iter_neighbors g v (fun u -> acc := f !acc u);
  !acc

let iter_edges g f =
  for u = 0 to n g - 1 do
    iter_neighbors g u (fun v -> if u < v then f u v)
  done

let iter_edges_w g f =
  for u = 0 to n g - 1 do
    iter_neighbors_w g u (fun v w -> if u < v then f u v w)
  done

let edges g =
  let acc = ref [] in
  iter_edges g (fun u v -> acc := (u, v) :: !acc);
  !acc

let edge_array g =
  let out = Array.make g.m (0, 0) in
  let i = ref 0 in
  iter_edges g (fun u v ->
      out.(!i) <- (u, v);
      incr i);
  out

let to_csr g =
  if is_weighted g then
    Csr.of_weighted_stream ~m_hint:g.m ~n:(n g) (fun emit -> iter_edges_w g emit)
  else Csr.of_stream ~m_hint:g.m ~n:(n g) (fun emit -> iter_edges g emit)

(* Write every row, as a read returns it, into a fresh base and drop the
   delta, tombstones included.  Does not bump [version]: the edge set is
   unchanged, only its physical layout. *)
let commit g =
  if g.nadded > 0 || g.ndead > 0 then begin
    g.base <- Csr.of_rows ~weighted:(is_weighted g) g.deg (iter_neighbors_w g);
    g.adds <- [||];
    g.adds_len <- [||];
    g.nadded <- 0;
    g.dead <- Bytes.empty;
    g.ndead <- 0
  end

(* Commit once the delta reaches half the base: the commit costs O(n + m),
   and the base grows geometrically, so total commit work over any op
   sequence is O(total edges) amortized. *)
let maybe_commit g =
  let d = g.nadded + g.ndead in
  if d >= 64 && 2 * d >= Csr.m g.base then commit g

(* mark or clear both arcs of the base edge whose u-side arc is [i] *)
let set_tombstone g u v i mark =
  if Bytes.length g.dead = 0 then
    g.dead <- Bytes.make (Bigarray.Array1.dim g.base.Csr.adjncy) '\000';
  let c = if mark then '\001' else '\000' in
  Bytes.set g.dead i c;
  Bytes.set g.dead (Csr.find_arc g.base v u) c;
  g.ndead <- (if mark then g.ndead + 1 else g.ndead - 1)

(* put (x, w) into v's buffer at its ascending place, doubling a full one *)
let insert_add g v x w =
  if Array.length g.adds_len = 0 then begin
    g.adds <- Array.make (n g) [||];
    g.adds_len <- Array.make (n g) 0
  end;
  let k = g.adds_len.(v) and i = add_slot g v x in
  if 2 * k = Array.length g.adds.(v) then begin
    let b = Array.make (max 8 (4 * k)) 0 in
    Array.blit g.adds.(v) 0 b 0 (2 * k);
    g.adds.(v) <- b
  end;
  let a = g.adds.(v) in
  Array.blit a (2 * i) a ((2 * i) + 2) (2 * (k - i));
  a.(2 * i) <- x;
  a.((2 * i) + 1) <- w;
  g.adds_len.(v) <- k + 1

let remove_add g v i =
  let a = g.adds.(v) and k = g.adds_len.(v) in
  Array.blit a ((2 * i) + 2) a (2 * i) (2 * (k - i - 1));
  g.adds_len.(v) <- k - 1

let add_edge ?(weight = 1) g u v =
  check_node g u;
  check_node g v;
  if weight < 1 then invalid_arg "Graph.add_edge: weight must be positive";
  let i = Csr.find_arc g.base u v in
  if u = v || (i >= 0 && not (is_dead g i)) || find_add g u v >= 0 then false
  else begin
    (* A base edge here is tombstoned: re-added at the base copy's weight it
       reappears in place; at any other weight the base copy stays hidden
       and the re-weighted edge joins the additions. *)
    if i >= 0 && weight = arc_weight g i then set_tombstone g u v i false
    else begin
      insert_add g u v weight;
      insert_add g v u weight;
      g.nadded <- g.nadded + 1
    end;
    g.deg.(u) <- g.deg.(u) + 1;
    g.deg.(v) <- g.deg.(v) + 1;
    g.m <- g.m + 1;
    if weight <> 1 then g.nonunit <- g.nonunit + 1;
    g.version <- g.version + 1;
    maybe_commit g;
    true
  end

let remove_edge g u v =
  check_node g u;
  check_node g v;
  let i = live_arc g u v in
  (* the removed edge's weight, or 0 when there is no edge (weights are
     positive, and neither a store nor a buffer holds a self-loop) *)
  let weight =
    if i >= 0 then begin
      set_tombstone g u v i true;
      arc_weight g i
    end
    else
      let j = find_add g u v in
      if j < 0 then 0
      else begin
        let w = g.adds.(u).((2 * j) + 1) in
        remove_add g u j;
        remove_add g v (find_add g v u);
        g.nadded <- g.nadded - 1;
        w
      end
  in
  if weight = 0 then false
  else begin
    if weight <> 1 then g.nonunit <- g.nonunit - 1;
    g.deg.(u) <- g.deg.(u) - 1;
    g.deg.(v) <- g.deg.(v) - 1;
    g.m <- g.m - 1;
    g.version <- g.version + 1;
    maybe_commit g;
    true
  end

(* the base and snapshot are immutable and version-tagged, so sharing them is
   safe; the buffers, marks and degrees are copied, so either copy mutating
   leaves the other as it was *)
let copy g =
  let pending = g.nadded > 0 in
  {
    g with
    adds =
      (if pending then Array.mapi (fun v a -> Array.sub a 0 (2 * g.adds_len.(v))) g.adds
       else [||]);
    adds_len = (if pending then Array.copy g.adds_len else [||]);
    dead = (if g.ndead > 0 then Bytes.copy g.dead else Bytes.empty);
    deg = Array.copy g.deg;
  }

let of_edges size es =
  let g = create size in
  List.iter (fun (u, v) -> ignore (add_edge g u v)) es;
  g

let of_weighted_edges size es =
  let g = create size in
  List.iter (fun (u, v, w) -> ignore (add_edge ~weight:w g u v)) es;
  g

(* a weighted store whose weights are all 1 is adopted without its lane, so
   the snapshot agrees with [is_weighted] from the start *)
let of_csr c =
  let size = Csr.n c in
  let deg = Array.init size (fun v -> Csr.degree c v) in
  let nonunit = ref 0 in
  if Csr.is_weighted c then
    Csr.iter_edges_w c (fun _ _ w -> if w <> 1 then incr nonunit);
  let c =
    if Csr.is_weighted c && !nonunit = 0 then
      Csr.of_rows ~weighted:false deg (Csr.iter_neighbors_w c)
    else c
  in
  {
    base = c;
    adds = [||];
    adds_len = [||];
    nadded = 0;
    dead = Bytes.empty;
    ndead = 0;
    deg;
    m = Csr.m c;
    nonunit = !nonunit;
    version = 0;
    snap = Some (0, c);
  }

let empty_like g = create (n g)

let is_subgraph h ~of_:g =
  n h = n g
  &&
  let ok = ref true in
  if is_weighted h || is_weighted g then
    iter_edges_w h (fun u v w ->
        if not (mem_edge g u v && edge_weight g u v = w) then ok := false)
  else iter_edges h (fun u v -> if not (mem_edge g u v) then ok := false);
  !ok

let max_degree g =
  let best = ref 0 in
  for v = 0 to n g - 1 do
    best := max !best (degree g v)
  done;
  !best

let min_degree g =
  if n g = 0 then 0
  else begin
    let best = ref max_int in
    for v = 0 to n g - 1 do
      best := min !best (degree g v)
    done;
    !best
  end

let is_regular g = n g = 0 || max_degree g = min_degree g

let isolate g v =
  check_node g v;
  let ns = neighbors g v in
  List.iter (fun u -> ignore (remove_edge g v u)) ns;
  List.length ns

let filter_edges g keep =
  let h = empty_like g in
  iter_edges_w g (fun u v w -> if keep u v then ignore (add_edge ~weight:w h u v));
  h

let survivor g ~alive =
  if Array.length alive <> n g then invalid_arg "Graph.survivor: alive array size mismatch";
  filter_edges g (fun u v -> alive.(u) && alive.(v))

let common_neighbors g u v =
  check_node g u;
  check_node g v;
  (* Scan the smaller neighborhood and probe the larger one. *)
  let u, v = if degree g u <= degree g v then (u, v) else (v, u) in
  fold_neighbors g u (fun acc x -> if mem_edge g v x then x :: acc else acc) []

let version g = g.version

let m_snapshot_hits = Metrics.counter "csr.snapshot_hits"
let m_snapshot_builds = Metrics.counter "csr.snapshot_builds"

let snapshot g =
  match g.snap with
  | Some (v, c) when v = g.version ->
      Metrics.incr m_snapshot_hits;
      c
  | _ ->
      Metrics.incr m_snapshot_builds;
      commit g;
      g.snap <- Some (g.version, g.base);
      g.base

let pp fmt g =
  Format.fprintf fmt "graph(n=%d, m=%d)" (n g) (m g);
  if n g <= 16 then
    for v = 0 to n g - 1 do
      let ns = List.rev (neighbors g v) in
      Format.fprintf fmt "@\n  %d: %s" v (String.concat " " (List.map string_of_int ns))
    done
