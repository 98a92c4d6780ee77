
let complete n =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      ignore (Graph.add_edge g u v)
    done
  done;
  g

let complete_bipartite a b =
  let g = Graph.create (a + b) in
  for u = 0 to a - 1 do
    for v = a to a + b - 1 do
      ignore (Graph.add_edge g u v)
    done
  done;
  g

let cycle n =
  if n < 3 then invalid_arg "Generators.cycle: need n >= 3";
  let g = Graph.create n in
  for v = 0 to n - 1 do
    ignore (Graph.add_edge g v ((v + 1) mod n))
  done;
  g

let path n =
  let g = Graph.create n in
  for v = 0 to n - 2 do
    ignore (Graph.add_edge g v (v + 1))
  done;
  g

let star n =
  let g = Graph.create n in
  for v = 1 to n - 1 do
    ignore (Graph.add_edge g 0 v)
  done;
  g

let grid rows cols =
  let g = Graph.create (rows * cols) in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then ignore (Graph.add_edge g (id r c) (id r (c + 1)));
      if r + 1 < rows then ignore (Graph.add_edge g (id r c) (id (r + 1) c))
    done
  done;
  g

let torus rows cols =
  let g = Graph.create (rows * cols) in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      ignore (Graph.add_edge g (id r c) (id r ((c + 1) mod cols)));
      ignore (Graph.add_edge g (id r c) (id ((r + 1) mod rows) c))
    done
  done;
  g

let hypercube d =
  if d < 0 || d > 25 then invalid_arg "Generators.hypercube: dimension out of range";
  let n = 1 lsl d in
  let g = Graph.create n in
  for v = 0 to n - 1 do
    for bit = 0 to d - 1 do
      let u = v lxor (1 lsl bit) in
      if u > v then ignore (Graph.add_edge g v u)
    done
  done;
  g

let circulant n offsets =
  let g = Graph.create n in
  List.iter
    (fun o ->
      if o <> 0 then
        for v = 0 to n - 1 do
          ignore (Graph.add_edge g v (((v + o) mod n + n) mod n))
        done)
    offsets;
  g

let erdos_renyi rng n p =
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      if Prng.bool rng p then ignore (Graph.add_edge g u v)
    done
  done;
  g

(* Dynamic edge list supporting O(1) uniform sampling and deletion, used by
   the configuration-model repair loop. *)
module Edge_pool = struct
  type t = {
    mutable edges : (int * int) array;
    mutable len : int;
    index : (int * int, int) Hashtbl.t;
  }

  let norm u v = if u < v then (u, v) else (v, u)

  let create () = { edges = Array.make 16 (0, 0); len = 0; index = Hashtbl.create 64 }

  let add t u v =
    let e = norm u v in
    if t.len = Array.length t.edges then begin
      let bigger = Array.make (2 * t.len) (0, 0) in
      Array.blit t.edges 0 bigger 0 t.len;
      t.edges <- bigger
    end;
    t.edges.(t.len) <- e;
    Hashtbl.replace t.index e t.len;
    t.len <- t.len + 1

  let remove t u v =
    let e = norm u v in
    let pos = Hashtbl.find t.index e in
    Hashtbl.remove t.index e;
    let last = t.len - 1 in
    if pos <> last then begin
      let moved = t.edges.(last) in
      t.edges.(pos) <- moved;
      Hashtbl.replace t.index moved pos
    end;
    t.len <- last

  let sample t rng = t.edges.(Prng.int rng t.len)
end

(* One configuration-model draw: pair up d stubs per node, then repair
   self-loops and duplicate edges with degree-preserving edge switches.
   [None] when the switches run out of budget. *)
let pairing rng n d =
  let g = Graph.create n in
  let pool = Edge_pool.create () in
  let stubs = Array.make (n * d) 0 in
  for v = 0 to n - 1 do
    for i = 0 to d - 1 do
      stubs.((v * d) + i) <- v
    done
  done;
  Prng.shuffle rng stubs;
  let bad = ref [] in
  let try_add u v =
    if u <> v && Graph.add_edge g u v then Edge_pool.add pool u v else bad := (u, v) :: !bad
  in
  let i = ref 0 in
  while !i + 1 < Array.length stubs do
    try_add stubs.(!i) stubs.(!i + 1);
    i := !i + 2
  done;
  (* Repair: a bad pair (u, v) means u and v each still miss one incidence
     (two for a self-loop).  A switch with a random existing edge (x, y)
     restores the degree sequence without introducing conflicts. *)
  let attempts = ref 0 in
  let budget = 1000 * (List.length !bad + 1) * (1 + (n / 10)) in
  let exception Stuck in
  let rec fix u v =
    incr attempts;
    if !attempts > budget then raise Stuck;
    let x, y = Edge_pool.sample pool rng in
    if u = v then begin
      (* Self-loop: u needs two new incidences.  Replace (x,y) by (u,x),(u,y). *)
      if u <> x && u <> y && (not (Graph.mem_edge g u x)) && not (Graph.mem_edge g u y)
      then begin
        ignore (Graph.remove_edge g x y);
        Edge_pool.remove pool x y;
        ignore (Graph.add_edge g u x);
        Edge_pool.add pool u x;
        ignore (Graph.add_edge g u y);
        Edge_pool.add pool u y
      end
      else fix u v
    end
    else if
      u <> x && u <> y && v <> x && v <> y
      && (not (Graph.mem_edge g u x))
      && not (Graph.mem_edge g v y)
    then begin
      ignore (Graph.remove_edge g x y);
      Edge_pool.remove pool x y;
      ignore (Graph.add_edge g u x);
      Edge_pool.add pool u x;
      ignore (Graph.add_edge g v y);
      Edge_pool.add pool v y
    end
    else fix u v
  in
  match List.iter (fun (u, v) -> fix u v) !bad with
  | () -> Some g
  | exception Stuck -> None

(* For dense targets (d > (n-1)/2) the switches starve, so we generate the
   (n-1-d)-regular complement instead and invert it; n(n-1-d) is even
   whenever nd is.  A switch tries one orientation of the sampled edge, so
   it can get stuck on a small graph (e.g. n = 5, d = 2 from some
   pairings); a stuck draw is redrawn from the same generator, at most 32
   times.  Redraws only follow a stuck draw, so a first draw that succeeds
   consumes the generator as if no retry existed. *)
let rec random_regular rng n d =
  if d < 0 || d >= n then invalid_arg "Generators.random_regular: need 0 <= d < n";
  if n * d mod 2 <> 0 then invalid_arg "Generators.random_regular: n*d must be even";
  if 2 * d > n - 1 then begin
    let co = random_regular rng n (n - 1 - d) in
    let g = Graph.create n in
    for u = 0 to n - 1 do
      for v = u + 1 to n - 1 do
        if not (Graph.mem_edge co u v) then ignore (Graph.add_edge g u v)
      done
    done;
    g
  end
  else begin
    let rec draw redraws =
      match pairing rng n d with
      | Some g -> g
      | None when redraws > 0 -> draw (redraws - 1)
      | None ->
          invalid_arg "Generators.random_regular: repair budget exhausted (graph too dense?)"
    in
    draw 32
  end

let margulis m =
  if m < 2 then invalid_arg "Generators.margulis: need m >= 2";
  let n = m * m in
  let g = Graph.create n in
  let id x y = (((x mod m) + m) mod m * m) + (((y mod m) + m) mod m) in
  for x = 0 to m - 1 do
    for y = 0 to m - 1 do
      let v = id x y in
      ignore (Graph.add_edge g v (id (x + (2 * y)) y));
      ignore (Graph.add_edge g v (id (x + (2 * y) + 1) y));
      ignore (Graph.add_edge g v (id x (y + (2 * x))));
      ignore (Graph.add_edge g v (id x (y + (2 * x) + 1)))
    done
  done;
  g

let two_cliques_matching n =
  if n < 2 || n mod 2 <> 0 then invalid_arg "Generators.two_cliques_matching: need even n >= 2";
  let half = n / 2 in
  let g = Graph.create n in
  for u = 0 to half - 1 do
    for v = u + 1 to half - 1 do
      ignore (Graph.add_edge g u v);
      ignore (Graph.add_edge g (half + u) (half + v))
    done
  done;
  for u = 0 to half - 1 do
    ignore (Graph.add_edge g u (half + u))
  done;
  g

let ring_of_cliques k s =
  if k < 1 || s < 1 then invalid_arg "Generators.ring_of_cliques";
  let g = Graph.create (k * s) in
  for c = 0 to k - 1 do
    let base = c * s in
    for u = 0 to s - 1 do
      for v = u + 1 to s - 1 do
        ignore (Graph.add_edge g (base + u) (base + v))
      done
    done
  done;
  if k > 1 then
    for c = 0 to k - 1 do
      let next = (c + 1) mod k in
      if k > 2 || c < next then
        ignore (Graph.add_edge g ((c * s) + s - 1) (next * s))
    done;
  g

let chung_lu rng w =
  let n = Array.length w in
  let total = Array.fold_left ( +. ) 0.0 w in
  if total <= 0.0 then invalid_arg "Generators.chung_lu: weights must be positive";
  let g = Graph.create n in
  for u = 0 to n - 1 do
    for v = u + 1 to n - 1 do
      let p = min 1.0 (w.(u) *. w.(v) /. total) in
      if Prng.bool rng p then ignore (Graph.add_edge g u v)
    done
  done;
  g

let power_law_weights rng ~n ~exponent ~w_min =
  if exponent <= 1.0 then invalid_arg "Generators.power_law_weights: exponent must exceed 1";
  let cap = sqrt (float_of_int n *. w_min) in
  Array.init n (fun _ ->
      let u = max 1e-12 (Prng.float rng) in
      min cap (w_min *. (u ** (-1.0 /. (exponent -. 1.0)))))

let preferential_attachment rng ~n ~m =
  if m < 1 || m >= n then invalid_arg "Generators.preferential_attachment: need 1 <= m < n";
  let g = Graph.create n in
  (* endpoint multiset for degree-proportional sampling, as a growable array *)
  let cap = ref 1024 in
  let endpoints = ref (Array.make !cap 0) in
  let len = ref 0 in
  let push v =
    if !len = !cap then begin
      cap := 2 * !cap;
      let bigger = Array.make !cap 0 in
      Array.blit !endpoints 0 bigger 0 !len;
      endpoints := bigger
    end;
    !endpoints.(!len) <- v;
    incr len
  in
  (* seed clique on the first m+1 nodes *)
  for u = 0 to m do
    for v = u + 1 to m do
      if Graph.add_edge g u v then begin
        push u;
        push v
      end
    done
  done;
  for v = m + 1 to n - 1 do
    let added = ref 0 in
    let guard = ref 0 in
    (* snapshot length so v's own fresh endpoints don't bias its sampling *)
    let frozen = !len in
    while !added < m && !guard < 200 * m do
      incr guard;
      let target = !endpoints.(Prng.int rng frozen) in
      if target <> v && Graph.add_edge g v target then begin
        incr added;
        push v;
        push target
      end
    done
  done;
  g

(* Streaming expander: never touches Graph.add_edge.  A Hamiltonian cycle
   guarantees connectivity; each random permutation contributes a 2-regular
   union of cycles, so the union is near-(2 + 2*rounds)-regular and an
   expander w.h.p. (random permutation unions mix like random regular
   graphs).  All arcs go straight into one O(n + m) counting-sort build. *)
let expander rng n d =
  if n < 3 then invalid_arg "Generators.expander: need n >= 3";
  if d < 2 || d >= n then invalid_arg "Generators.expander: need 2 <= d < n";
  let rounds = (d - 2 + 1) / 2 in
  let c =
    Csr.of_stream ~m_hint:(n * (d + 1) / 2) ~n (fun emit ->
        for v = 0 to n - 1 do
          emit v (if v = n - 1 then 0 else v + 1)
        done;
        for _ = 1 to rounds do
          let p = Prng.permutation rng n in
          Array.iteri (fun i j -> if i <> j then emit i j) p
        done)
  in
  Graph.of_csr c

(* Weighted families: uniform integer weights in [1, w_max].  A duplicate
   arc keeps the lighter weight (the counting-sort dedup rule), matching
   what a multigraph collapsed to its lightest parallel edge would give. *)
let weighted_expander rng n d ~w_max =
  if w_max < 1 then invalid_arg "Generators.weighted_expander: need w_max >= 1";
  if n < 3 then invalid_arg "Generators.weighted_expander: need n >= 3";
  if d < 2 || d >= n then invalid_arg "Generators.weighted_expander: need 2 <= d < n";
  let rounds = (d - 2 + 1) / 2 in
  let w () = 1 + Prng.int rng w_max in
  let c =
    Csr.of_weighted_stream ~m_hint:(n * (d + 1) / 2) ~n (fun emit ->
        for v = 0 to n - 1 do
          emit v (if v = n - 1 then 0 else v + 1) (w ())
        done;
        for _ = 1 to rounds do
          let p = Prng.permutation rng n in
          Array.iteri (fun i j -> if i <> j then emit i j (w ())) p
        done)
  in
  Graph.of_csr c

let weighted_torus rng rows cols ~w_max =
  if w_max < 1 then invalid_arg "Generators.weighted_torus: need w_max >= 1";
  let g = Graph.create (rows * cols) in
  let id r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      ignore (Graph.add_edge ~weight:(1 + Prng.int rng w_max) g (id r c) (id r ((c + 1) mod cols)));
      ignore (Graph.add_edge ~weight:(1 + Prng.int rng w_max) g (id r c) (id ((r + 1) mod rows) c))
    done
  done;
  g

let randomize_weights rng g ~w_max =
  if w_max < 1 then invalid_arg "Generators.randomize_weights: need w_max >= 1";
  let h = Graph.create (Graph.n g) in
  Graph.iter_edges g (fun u v ->
      ignore (Graph.add_edge ~weight:(1 + Prng.int rng w_max) h u v));
  h
