(* Hopcroft–Karp over index spaces [0..l-1] (left) and [0..r-1] (right). *)

let infinity_dist = max_int

let m_phases = Metrics.counter "matching.phases"
let m_augmentations = Metrics.counter "matching.augmentations"
let m_path_len = Metrics.histo "matching.augment_path_len"

(* Flat bipartite adjacency: left index [i]'s right neighbours are
   [adj.(off.(i)) .. adj.(off.(i + 1) - 1)], ascending.  Rows are appended
   in left order; [adj] doubles when full. *)
type rows = { off : int array; mutable adj : int array; mutable fill : int }

let rows_create l = { off = Array.make (l + 1) 0; adj = Array.make (max 16 (4 * l)) 0; fill = 0 }

let push rows j =
  if rows.fill = Array.length rows.adj then begin
    let bigger = Array.make (2 * rows.fill) 0 in
    Array.blit rows.adj 0 bigger 0 rows.fill;
    rows.adj <- bigger
  end;
  rows.adj.(rows.fill) <- j;
  rows.fill <- rows.fill + 1

let end_row rows i = rows.off.(i + 1) <- rows.fill

let hopcroft_karp ~l ~r { off; adj; _ } =
  let match_l = Array.make l (-1) in
  let match_r = Array.make r (-1) in
  let dist = Array.make l infinity_dist in
  (* each left index enters the queue at most once per phase *)
  let queue = Array.make l 0 in
  let bfs () =
    let tail = ref 0 in
    for i = 0 to l - 1 do
      if match_l.(i) < 0 then begin
        dist.(i) <- 0;
        queue.(!tail) <- i;
        incr tail
      end
      else dist.(i) <- infinity_dist
    done;
    let reachable_free = ref false in
    let head = ref 0 in
    while !head < !tail do
      let i = queue.(!head) in
      incr head;
      for k = off.(i) to off.(i + 1) - 1 do
        let next = match_r.(adj.(k)) in
        if next < 0 then reachable_free := true
        else if dist.(next) = infinity_dist then begin
          dist.(next) <- dist.(i) + 1;
          queue.(!tail) <- next;
          incr tail
        end
      done
    done;
    !reachable_free
  in
  (* [leaf_depth] is the number of matched edges the successful augmenting
     path traversed; the path length in edges is [2 * leaf_depth + 1]. *)
  let leaf_depth = ref 0 in
  let rec dfs i depth =
    let stop = off.(i + 1) in
    let rec try_edges k =
      if k = stop then begin
        dist.(i) <- infinity_dist;
        false
      end
      else begin
        let j = adj.(k) in
        let next = match_r.(j) in
        let ok =
          if next < 0 then begin
            leaf_depth := depth;
            true
          end
          else if dist.(next) = dist.(i) + 1 then dfs next (depth + 1)
          else false
        in
        if ok then begin
          match_l.(i) <- j;
          match_r.(j) <- i;
          true
        end
        else try_edges (k + 1)
      end
    in
    try_edges off.(i)
  in
  while bfs () do
    Metrics.incr m_phases;
    for i = 0 to l - 1 do
      if match_l.(i) < 0 && dfs i 0 then begin
        Metrics.incr m_augmentations;
        Metrics.observe m_path_len ((2 * !leaf_depth) + 1)
      end
    done
  done;
  match_l

let matched_pairs ~left ~right match_l =
  let out = ref [] in
  Array.iteri (fun i j -> if j >= 0 then out := (left.(i), right.(j)) :: !out) match_l;
  Array.of_list (List.rev !out)

let maximum ~left ~right ~adj =
  let l = Array.length left and r = Array.length right in
  let rows = rows_create l in
  for i = 0 to l - 1 do
    for j = 0 to r - 1 do
      if adj left.(i) right.(j) then push rows j
    done;
    end_row rows i
  done;
  matched_pairs ~left ~right (hopcroft_karp ~l ~r rows)

(* Sorted neighbor arrays (every Graph row reads ascending) make the result
   canonical: it depends only on the edge set.  The distributed router
   relies on this to reproduce the centralized choice from local
   knowledge. *)
let sorted_neighbors g u =
  let a = Array.make (Graph.degree g u) 0 in
  let i = ref 0 in
  Graph.iter_neighbors g u (fun x ->
      a.(!i) <- x;
      incr i);
  a

(* Per-domain node arenas, zero between calls: [side] tags N(u) / N(v)
   membership while the neighbourhoods are split, [right_index] holds
   [j + 1] for right node [j] while the adjacency is built.  Each call
   resets the entries it wrote, so reuse costs nothing in n. *)
type arena = { mutable side : int array; mutable right_index : int array }

let arena_key = Domain.DLS.new_key (fun () -> { side = [||]; right_index = [||] })

let arena n =
  let a = Domain.DLS.get arena_key in
  if Array.length a.side < n then begin
    a.side <- Array.make n 0;
    a.right_index <- Array.make n 0
  end;
  a

let in_u = 1
let in_v = 2

let neighborhood_matching g u v =
  let nu = sorted_neighbors g u in
  let nv = sorted_neighbors g v in
  let { side; right_index } = arena (Graph.n g) in
  Array.iter (fun x -> side.(x) <- in_u) nu;
  Array.iter (fun y -> side.(y) <- side.(y) lor in_v) nv;
  (* right-to-left walks keep every list ascending *)
  let commons = ref [] and left = ref [] and right = ref [] in
  for k = Array.length nu - 1 downto 0 do
    let x = nu.(k) in
    if x <> u && x <> v then
      if side.(x) land in_v <> 0 then commons := x :: !commons else left := x :: !left
  done;
  for k = Array.length nv - 1 downto 0 do
    let y = nv.(k) in
    if y <> u && y <> v && side.(y) land in_u = 0 then right := y :: !right
  done;
  Array.iter (fun x -> side.(x) <- 0) nu;
  Array.iter (fun y -> side.(y) <- 0) nv;
  let left = Array.of_list !left and right = Array.of_list !right in
  let l = Array.length left and r = Array.length right in
  Array.iteri (fun j y -> right_index.(y) <- j + 1) right;
  (* Row i: the scan of left.(i)'s neighbours stamps every right index it
     hits with [i + 1]; collecting the stamps for j = 0 .. r-1 lists them
     ascending, the order Hopcroft–Karp tries them in, which fixes the
     matching. *)
  let rows = rows_create l in
  let hit = Array.make r 0 in
  for i = 0 to l - 1 do
    let stamp = i + 1 in
    Graph.iter_neighbors g left.(i) (fun y ->
        let j = right_index.(y) - 1 in
        if j >= 0 then hit.(j) <- stamp);
    for j = 0 to r - 1 do
      if hit.(j) = stamp then push rows j
    done;
    end_row rows i
  done;
  Array.iter (fun y -> right_index.(y) <- 0) right;
  (!commons, matched_pairs ~left ~right (hopcroft_karp ~l ~r rows))
