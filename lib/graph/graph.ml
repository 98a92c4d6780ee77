(* Delta-log graph over an immutable Bigarray CSR base.

   The committed edge set lives in [base] (a Csr.t); mutations are recorded
   in a small delta: [added] keyed by normalized edge plus per-node [adds]
   lists so added neighbors can be iterated, and, while deletions are
   pending, one tombstone byte per arc of the base ([dead], found through
   Csr.find_arc).  Once the delta reaches half the base size it is committed
   by an O(n + m) row merge that allocates only the new store: each base row
   minus its tombstoned arcs, merged with the node's sorted additions.  The
   growth policy is geometric, so a build-by-add_edge of m edges costs O(m)
   total, while reads stay flat-array speed: a neighbor scan is the sorted
   base row (skipping tombstoned arcs in place) plus the node's few
   additions. *)

type csr = Csr.t

type t = {
  mutable base : csr;  (* committed snapshot of the edge set *)
  added : (int, int) Hashtbl.t;  (* delta: edges present but not in base, with weight *)
  adds : (int * int) list array;  (* delta: added (neighbor, weight), per node, newest first *)
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
    added = Hashtbl.create 16;
    adds = Array.make size [];
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

(* Normalized edge key; n <= 10^7 keeps the product far below max_int. *)
let key g u v = if u < v then (u * n g) + v else (v * n g) + u

let arc_weight g i = match g.base.Csr.weights with None -> 1 | Some w -> w.{i}

let is_dead g i = g.ndead > 0 && Bytes.get g.dead i <> '\000'

(* index of u's base arc to v, or -1 when the edge is absent from the base
   or tombstoned *)
let live_arc g u v =
  let i = Csr.find_arc g.base u v in
  if i >= 0 && is_dead g i then -1 else i

let mem_edge g u v =
  check_node g u;
  check_node g v;
  u <> v
  && (live_arc g u v >= 0 || (Hashtbl.length g.added > 0 && Hashtbl.mem g.added (key g u v)))

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

let iter_neighbors g v f =
  check_node g v;
  iter_base g v f;
  List.iter (fun (u, _) -> f u) g.adds.(v)

let is_weighted g = g.nonunit > 0

let iter_neighbors_w g v f =
  check_node g v;
  iter_base_w g v f;
  List.iter (fun (u, w) -> f u w) g.adds.(v)

let edge_weight g u v =
  check_node g u;
  check_node g v;
  if u = v then invalid_arg "Graph.edge_weight: no such edge";
  let i = live_arc g u v in
  if i >= 0 then arc_weight g i
  else
    match Hashtbl.find_opt g.added (key g u v) with
    | Some w -> w
    | None -> invalid_arg "Graph.edge_weight: no such edge"

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
    iter_base g u (fun v -> if u < v then f u v);
    List.iter (fun (v, _) -> if u < v then f u v) g.adds.(u)
  done

let iter_edges_w g f =
  for u = 0 to n g - 1 do
    iter_base_w g u (fun v w -> if u < v then f u v w);
    List.iter (fun (v, w) -> if u < v then f u v w) g.adds.(u)
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

(* Merge the delta into a fresh base and drop it, tombstones included.  Does
   not bump [version]: the edge set is unchanged, only its physical
   layout. *)
let commit g =
  if Hashtbl.length g.added > 0 || g.ndead > 0 then begin
    let dead = if g.ndead > 0 then g.dead else Bytes.empty in
    g.base <- Csr.merge g.base ~dead ~adds:g.adds ~weighted:(is_weighted g);
    Hashtbl.reset g.added;
    g.dead <- Bytes.empty;
    g.ndead <- 0;
    Array.fill g.adds 0 (Array.length g.adds) []
  end

(* Commit once the delta reaches half the base: the merge costs O(n + m),
   and the base grows geometrically, so total merge work over any op
   sequence is O(total edges) amortized. *)
let maybe_commit g =
  let d = Hashtbl.length g.added + g.ndead in
  if d >= 64 && 2 * d >= Csr.m g.base then commit g

(* mark or clear both arcs of the base edge whose u-side arc is [i] *)
let set_tombstone g u v i mark =
  if Bytes.length g.dead = 0 then
    g.dead <- Bytes.make (Bigarray.Array1.dim g.base.Csr.adjncy) '\000';
  let c = if mark then '\001' else '\000' in
  Bytes.set g.dead i c;
  Bytes.set g.dead (Csr.find_arc g.base v u) c;
  g.ndead <- (if mark then g.ndead + 1 else g.ndead - 1)

let add_edge ?(weight = 1) g u v =
  check_node g u;
  check_node g v;
  if weight < 1 then invalid_arg "Graph.add_edge: weight must be positive";
  let i = Csr.find_arc g.base u v and k = key g u v in
  if u = v || (i >= 0 && not (is_dead g i)) || Hashtbl.mem g.added k then false
  else begin
    (* A base edge here is tombstoned: re-added at the base copy's weight it
       reappears in place; at any other weight the base copy stays hidden
       and the re-weighted edge joins the additions. *)
    if i >= 0 && weight = arc_weight g i then set_tombstone g u v i false
    else begin
      Hashtbl.replace g.added k weight;
      g.adds.(u) <- (v, weight) :: g.adds.(u);
      g.adds.(v) <- (u, weight) :: g.adds.(v)
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
  let i = live_arc g u v and k = key g u v in
  (* the removed edge's weight, or 0 when there is no edge (weights are
     positive, and a store has no self-loop arc) *)
  let weight =
    if i >= 0 then begin
      set_tombstone g u v i true;
      arc_weight g i
    end
    else
      match Hashtbl.find_opt g.added k with
      | Some w ->
          Hashtbl.remove g.added k;
          g.adds.(u) <- List.filter (fun (x, _) -> x <> v) g.adds.(u);
          g.adds.(v) <- List.filter (fun (x, _) -> x <> u) g.adds.(v);
          w
      | None -> 0
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
   safe: either copy mutating stops sharing the delta it changes *)
let copy g =
  {
    base = g.base;
    added = Hashtbl.copy g.added;
    adds = Array.copy g.adds;
    dead = (if g.ndead > 0 then Bytes.copy g.dead else Bytes.empty);
    ndead = g.ndead;
    deg = Array.copy g.deg;
    m = g.m;
    nonunit = g.nonunit;
    version = g.version;
    snap = g.snap;
  }

let of_edges size es =
  let g = create size in
  List.iter (fun (u, v) -> ignore (add_edge g u v)) es;
  g

let of_weighted_edges size es =
  let g = create size in
  List.iter (fun (u, v, w) -> ignore (add_edge ~weight:w g u v)) es;
  g

let of_csr c =
  let size = Csr.n c in
  let deg = Array.init size (fun v -> Csr.degree c v) in
  let nonunit = ref 0 in
  if Csr.is_weighted c then
    Csr.iter_edges_w c (fun _ _ w -> if w <> 1 then incr nonunit);
  {
    base = c;
    added = Hashtbl.create 16;
    adds = Array.make size [];
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
  iter_edges h (fun u v -> if not (mem_edge g u v) then ok := false);
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

let survivor g ~alive =
  if Array.length alive <> n g then invalid_arg "Graph.survivor: alive array size mismatch";
  let h = create (n g) in
  iter_edges_w g (fun u v w ->
      if alive.(u) && alive.(v) then ignore (add_edge ~weight:w h u v));
  h

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
      let ns = List.sort compare (neighbors g v) in
      Format.fprintf fmt "@\n  %d: %s" v (String.concat " " (List.map string_of_int ns))
    done
