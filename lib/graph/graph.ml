(* Delta-log graph over an immutable Bigarray CSR base.

   The committed edge set lives in [base] (a Csr.t); mutations are
   recorded in a small delta — [added] / [dels] keyed by normalized edge,
   plus per-node [adds] lists so added neighbors can be iterated — and the
   delta is replayed into a fresh base (an O(m) counting-sort rebuild) once
   it reaches half the base size.  The growth policy is geometric, so a
   build-by-add_edge of m edges costs O(m) total, while reads stay flat-array
   speed: a neighbor scan is the sorted base row (skipping deleted edges only
   when deletions exist) plus the node's few delta additions. *)

type csr = Csr.t

type t = {
  mutable base : csr;  (* committed snapshot of the edge set *)
  added : (int, int) Hashtbl.t;  (* delta: edges present but not in base, with weight *)
  dels : (int, unit) Hashtbl.t;  (* delta: base edges currently absent *)
  adds : (int * int) list array;  (* delta: added (neighbor, weight), per node *)
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
    dels = Hashtbl.create 16;
    adds = Array.make size [];
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

let mem_edge g u v =
  check_node g u;
  check_node g v;
  u <> v
  &&
  let k = key g u v in
  Hashtbl.mem g.added k
  || (Csr.mem_edge g.base u v && not (Hashtbl.mem g.dels k))

let degree g v =
  check_node g v;
  g.deg.(v)

let iter_neighbors g v f =
  check_node g v;
  if Hashtbl.length g.dels = 0 then Csr.iter_neighbors g.base v f
  else Csr.iter_neighbors g.base v (fun u -> if not (Hashtbl.mem g.dels (key g u v)) then f u);
  List.iter (fun (u, _) -> f u) g.adds.(v)

let is_weighted g = g.nonunit > 0

let iter_neighbors_w g v f =
  check_node g v;
  if Hashtbl.length g.dels = 0 then Csr.iter_neighbors_w g.base v f
  else
    Csr.iter_neighbors_w g.base v (fun u w ->
        if not (Hashtbl.mem g.dels (key g u v)) then f u w);
  List.iter (fun (u, w) -> f u w) g.adds.(v)

let edge_weight g u v =
  check_node g u;
  check_node g v;
  if u = v then invalid_arg "Graph.edge_weight: no such edge";
  let k = key g u v in
  match Hashtbl.find_opt g.added k with
  | Some w -> w
  | None ->
      if Hashtbl.mem g.dels k || not (Csr.mem_edge g.base u v) then
        invalid_arg "Graph.edge_weight: no such edge"
      else Csr.edge_weight g.base u v

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
  let no_dels = Hashtbl.length g.dels = 0 in
  for u = 0 to n g - 1 do
    Csr.iter_neighbors g.base u (fun v ->
        if u < v && (no_dels || not (Hashtbl.mem g.dels (key g u v))) then f u v);
    List.iter (fun (v, _) -> if u < v then f u v) g.adds.(u)
  done

let iter_edges_w g f =
  let no_dels = Hashtbl.length g.dels = 0 in
  for u = 0 to n g - 1 do
    Csr.iter_neighbors_w g.base u (fun v w ->
        if u < v && (no_dels || not (Hashtbl.mem g.dels (key g u v))) then f u v w);
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

(* Replay the delta into a fresh base.  Does not bump [version]: the edge set
   is unchanged, only its physical layout. *)
let commit g =
  if Hashtbl.length g.added > 0 || Hashtbl.length g.dels > 0 then begin
    g.base <- to_csr g;
    Hashtbl.reset g.added;
    Hashtbl.reset g.dels;
    Array.fill g.adds 0 (Array.length g.adds) []
  end

(* Commit once the delta reaches half the base: replay cost is O(m), and the
   base grows geometrically, so total replay work over any op sequence is
   O(total edges) amortized. *)
let maybe_commit g =
  let d = Hashtbl.length g.added + Hashtbl.length g.dels in
  if d >= 64 && 2 * d >= Csr.m g.base then commit g

let add_edge ?(weight = 1) g u v =
  check_node g u;
  check_node g v;
  if weight < 1 then invalid_arg "Graph.add_edge: weight must be positive";
  if u = v || mem_edge g u v then false
  else begin
    let k = key g u v in
    let record_delta () =
      Hashtbl.replace g.added k weight;
      g.adds.(u) <- (v, weight) :: g.adds.(u);
      g.adds.(v) <- (u, weight) :: g.adds.(v)
    in
    if Hashtbl.mem g.dels k then begin
      (* Resurrected base edge.  If the weight matches the base copy, just
         drop the deletion marker; otherwise keep the marker (the base copy
         stays hidden) and record the re-weighted edge in the delta. *)
      if weight = Csr.edge_weight g.base u v then Hashtbl.remove g.dels k
      else record_delta ()
    end
    else record_delta ();
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
  if u <> v && mem_edge g u v then begin
    let k = key g u v in
    let weight =
      match Hashtbl.find_opt g.added k with
      | Some w ->
          Hashtbl.remove g.added k;
          g.adds.(u) <- List.filter (fun (x, _) -> x <> v) g.adds.(u);
          g.adds.(v) <- List.filter (fun (x, _) -> x <> u) g.adds.(v);
          w
      | None ->
          Hashtbl.replace g.dels k ();
          if is_weighted g then Csr.edge_weight g.base u v else 1
    in
    if weight <> 1 then g.nonunit <- g.nonunit - 1;
    g.deg.(u) <- g.deg.(u) - 1;
    g.deg.(v) <- g.deg.(v) - 1;
    g.m <- g.m - 1;
    g.version <- g.version + 1;
    maybe_commit g;
    true
  end
  else false

(* the base and snapshot are immutable and version-tagged, so sharing them is
   safe: either copy mutating stops sharing the delta it changes *)
let copy g =
  {
    base = g.base;
    added = Hashtbl.copy g.added;
    dels = Hashtbl.copy g.dels;
    adds = Array.copy g.adds;
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
    dels = Hashtbl.create 16;
    adds = Array.make size [];
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
