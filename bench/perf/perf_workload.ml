(* The pipeline benchmark's workloads, their ops, and the checks on every op.

   A workload generates one graph from its seed (the [graph] layer), then
   repeats one op: build a spanner ([construction]), certify its distance
   stretch ([stretch]), route a matching of G-edges over it ([router]), or
   soak it under churn ([soak]).  The library only ever receives generated
   graphs, matchings and seeds.  Each call into a layer goes through
   {!Perf_layers.layer}, which is a plain call unless the run is traced. *)

let now = Unix.gettimeofday

type built = {
  spanner : Graph.t;
  route : (Prng.t -> (int * int) array -> Routing.path array) option;
      (** the construction's matching router, when it has one *)
  repaired : int;  (** edges the construction's repair pass put back *)
}

type op =
  | Build_certify  (** build a fresh spanner, certify it, route one pooled matching *)
  | Route  (** route one pooled matching over the spanner built in setup *)
  | Churn of { events : int; batch : int; requests : int }
      (** one {!Soak.run} over the setup spanner; every batch is a sample *)

type t = {
  name : string;
  gen : Prng.t -> Graph.t;
  build : Prng.t -> Graph.t -> built;
  bound : int;  (** the stretch every certificate must meet *)
  matchings : int;  (** random maximal matchings pooled in setup; 0 = no routing *)
  op : op;
}

(* ---- constructions, called through their own modules ---- *)

let algorithm1 rng g =
  let t = Regular_dc.build rng g in
  {
    spanner = t.Regular_dc.spanner;
    route = Some (Regular_dc.to_dc t g).Dc.route_matching;
    repaired = t.Regular_dc.repaired;
  }

(* The Theorem 2 router memoizes each removed edge's candidate paths.  Every
   op routes through a copy with an empty cache, so every removed-edge
   request pays for its Lemma 4 neighbourhood matching and an op's cost does
   not depend on how many ops ran before it. *)
let theorem2 rng g =
  let t = Expander_dc.build rng g in
  let route rng pairs =
    let fresh = { t with Expander_dc.cache = Hashtbl.create 256; fallbacks = ref 0 } in
    (Expander_dc.to_dc fresh g).Dc.route_matching rng pairs
  in
  { spanner = t.Expander_dc.spanner; route = Some route; repaired = 0 }

let elkin_neiman ~k rng g =
  let r = Elkin_neiman.build ~k rng g in
  { spanner = r.Elkin_neiman.spanner; route = None; repaired = r.Elkin_neiman.repaired }

let baswana_sen_weighted rng g =
  { spanner = Baswana_sen_weighted.build ~k:2 rng g; route = None; repaired = 0 }

(* ---- the workloads ---- *)

(* Random d-regular graphs with d ≈ n^0.82 satisfy the premises of both
   Theorem 2 and Theorem 3, so Algorithm 1 and the Theorem 2 sampler run in
   the paper's own regime. *)
let dc_build ~n ~d =
  {
    name = "dc-build";
    gen = (fun rng -> Generators.random_regular rng n d);
    build = algorithm1;
    bound = 3;
    matchings = 8;
    op = Build_certify;
  }

let dc_route ~n ~d =
  {
    name = "dc-route";
    gen = (fun rng -> Generators.random_regular rng n d);
    build = theorem2;
    bound = 3;
    matchings = 16;
    op = Route;
  }

(* Elkin–Neiman at k = 3 keeps O(n^{4/3}) edges: on a degree-n^0.78 expander
   that is a real sparsification, and its repair pass is a full MS-BFS
   violations sweep over a CSR larger than a core's L2. *)
let sparse_certify ~n ~d =
  {
    name = "sparse-certify";
    gen = (fun rng -> Generators.expander rng n d);
    build = elkin_neiman ~k:3;
    bound = 5;
    matchings = 0;
    op = Build_certify;
  }

let weighted_certify ~n ~d ~w_max =
  {
    name = "weighted-certify";
    gen = (fun rng -> Generators.weighted_expander rng n d ~w_max);
    build = baswana_sen_weighted;
    bound = 3;
    matchings = 0;
    op = Build_certify;
  }

(* A circulant has diameter ≈ n / (2·offsets), so a churn batch dirties only
   the source groups near its events and incremental re-certification has
   something to save. *)
let churn ~n ~offsets ~events ~batch ~requests =
  {
    name = "churn";
    gen = (fun _ -> Generators.circulant n (List.init offsets (fun i -> i + 1)));
    build = algorithm1;
    bound = 3;
    matchings = 0;
    op = Churn { events; batch; requests };
  }

let all =
  [
    dc_build ~n:384 ~d:128;
    dc_route ~n:384 ~d:128;
    sparse_certify ~n:1536 ~d:256;
    weighted_certify ~n:384 ~d:192 ~w_max:8;
    churn ~n:2048 ~offsets:12 ~events:200 ~batch:10 ~requests:16;
  ]

(* The same workloads at sizes that run in milliseconds (the smoke test). *)
let tiny =
  [
    dc_build ~n:64 ~d:24;
    dc_route ~n:64 ~d:24;
    sparse_certify ~n:128 ~d:24;
    weighted_certify ~n:64 ~d:16 ~w_max:8;
    churn ~n:96 ~offsets:4 ~events:30 ~batch:10 ~requests:4;
  ]

let find name workloads = List.find_opt (fun w -> w.name = name) workloads

(* ---- setup ---- *)

type env = {
  g : Graph.t;
  fixed : built option;  (** the spanner built once in setup ([Route], [Churn]) *)
  fixed_stretch : int;  (** its certificate ([Route] only, else 0) *)
  pool : (int * int) array array;
  ops_rng : Prng.t;  (** parent of every op's generator; copy before use *)
  gen_ms : float;
  snapshot_ms : float;
  graph_alloc_w : float;
  setup_s : float;
}

(* Everything an op reads is made here, from [seed] alone, in a fixed split
   order; running it twice gives the same inputs.  Raises [Failure] when the
   setup spanner fails its checks. *)
let setup w ~seed =
  let t0 = now () and a0 = Perf_layers.allocated () in
  let master = Prng.create seed in
  let rng_gen = Prng.split master in
  let rng_build = Prng.split master in
  let rng_pool = Prng.split master in
  let ops_rng = Prng.split master in
  let g = w.gen rng_gen in
  let t1 = now () in
  let (_ : Graph.csr) = Graph.snapshot g in
  let t2 = now () and a1 = Perf_layers.allocated () in
  let fixed = match w.op with Build_certify -> None | Route | Churn _ -> Some (w.build rng_build g) in
  let fixed_stretch =
    match (w.op, fixed) with
    | Route, Some b ->
        if not (Graph.is_subgraph b.spanner ~of_:g) then failwith "setup spanner is not a subgraph";
        let s = Stretch.exact_bounded g b.spanner ~bound:w.bound in
        if s > w.bound then failwith "setup spanner fails its stretch certificate";
        s
    | _ -> 0
  in
  let pool = Array.init w.matchings (fun _ -> Matching.random_maximal rng_pool g) in
  {
    g;
    fixed;
    fixed_stretch;
    pool;
    ops_rng;
    gen_ms = 1000.0 *. (t1 -. t0);
    snapshot_ms = 1000.0 *. (t2 -. t1);
    graph_alloc_w = a1 -. a0;
    setup_s = now () -. t0;
  }

(* ---- checks ---- *)

let spanner_ok ~g ~h ~bound ~stretch = Graph.is_subgraph h ~of_:g && stretch <= bound

(* every path runs from its request's first endpoint to its second, and
   every hop is an edge of [h] *)
let routes_ok h pairs paths =
  Array.length paths = Array.length pairs
  && Array.for_all2
       (fun (u, v) p ->
         let k = Array.length p in
         k >= 2
         && p.(0) = u
         && p.(k - 1) = v
         &&
         let ok = ref true in
         for i = 0 to k - 2 do
           if not (Graph.mem_edge h p.(i) p.(i + 1)) then ok := false
         done;
         !ok)
       pairs paths

(* source groups of the certificate: smaller endpoints of removed edges *)
let removed_groups g h =
  let marked = Array.make (Graph.n g) false in
  Graph.iter_edges g (fun u v -> if not (Graph.mem_edge h u v) then marked.(u) <- true);
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 marked

(* ---- running ops ---- *)

type acc = {
  mutable lat_ms : float list;  (** one per timed sample *)
  mutable busy_ms : float;  (** summed over the samples *)
  mutable items : int;  (** throughput units done by the samples *)
  mutable attempted : int;
  mutable failed : int;
  mutable kept_sum : float;  (** summed m(H)/m(G) *)
  mutable kept_n : int;
  mutable kept_edges : int;  (** summed m(H) of built spanners *)
  mutable repaired : int;
  mutable stretch : int;  (** worst certified stretch *)
  mutable congestion : int;  (** worst node congestion of a routed matching *)
  mutable pairs : int;  (** routed pairs *)
  mutable groups : int;  (** removed-edge source groups (traced runs only) *)
  mutable soak_runs : int;
  mutable first_batch_ms : float;
  mutable audit_ms : float;
  mutable swept : int;
  mutable swept_base : int;  (** groups a from-scratch certifier would sweep *)
  mutable dirty : int;
  mutable readded : int;
  mutable errors : string list;  (** first exception messages, newest first *)
}

let fresh_acc () =
  {
    lat_ms = [];
    busy_ms = 0.0;
    items = 0;
    attempted = 0;
    failed = 0;
    kept_sum = 0.0;
    kept_n = 0;
    kept_edges = 0;
    repaired = 0;
    stretch = 0;
    congestion = 0;
    pairs = 0;
    groups = 0;
    soak_runs = 0;
    first_batch_ms = 0.0;
    audit_ms = 0.0;
    swept = 0;
    swept_base = 0;
    dirty = 0;
    readded = 0;
    errors = [];
  }

let sample acc ~ms ~items =
  acc.lat_ms <- ms :: acc.lat_ms;
  acc.busy_ms <- acc.busy_ms +. ms;
  acc.items <- acc.items + items

let fail acc msg =
  acc.failed <- acc.failed + 1;
  if List.length acc.errors < 3 then acc.errors <- msg :: acc.errors

let kept acc ~m_h ~m_g =
  acc.kept_sum <- acc.kept_sum +. (float_of_int m_h /. float_of_int m_g);
  acc.kept_n <- acc.kept_n + 1

(* One build/certify/route op.  Only the calls into the library are timed;
   the checks run after the clock stops. *)
let pipeline_op w env acc tally rng i =
  let g = env.g in
  let pairs = if Array.length env.pool = 0 then [||] else env.pool.(i mod Array.length env.pool) in
  let rng_build = Prng.split rng in
  let rng_route = Prng.split rng in
  let layer name f = Perf_layers.layer tally name f in
  let t0 = now () in
  let outcome =
    match
      Trace.with_span ~name:"bench.op" ~args:[ ("op", string_of_int i) ] (fun () ->
          let b =
            match env.fixed with
            | Some b -> b
            | None -> layer "construction" (fun () -> w.build rng_build g)
          in
          let stretch =
            match env.fixed with
            | Some _ -> env.fixed_stretch
            | None -> layer "stretch" (fun () -> Stretch.exact_bounded g b.spanner ~bound:w.bound)
          in
          let paths =
            match b.route with
            | Some route when Array.length pairs > 0 -> layer "router" (fun () -> route rng_route pairs)
            | _ -> [||]
          in
          (b, stretch, paths))
    with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let ms = 1000.0 *. (now () -. t0) in
  acc.attempted <- acc.attempted + 1;
  match outcome with
  | Error msg ->
      sample acc ~ms ~items:0;
      fail acc msg
  | Ok (b, stretch, paths) ->
      let h = b.spanner in
      let items =
        match w.op with Route -> Array.length pairs | Build_certify | Churn _ -> Graph.m g
      in
      sample acc ~ms ~items;
      kept acc ~m_h:(Graph.m h) ~m_g:(Graph.m g);
      acc.stretch <- max acc.stretch stretch;
      if Option.is_none env.fixed then begin
        acc.kept_edges <- acc.kept_edges + Graph.m h;
        acc.repaired <- acc.repaired + b.repaired;
        if tally.Perf_layers.traced then acc.groups <- acc.groups + removed_groups g h
      end;
      if Array.length paths > 0 then begin
        acc.pairs <- acc.pairs + Array.length pairs;
        acc.congestion <- max acc.congestion (Routing.congestion ~n:(Graph.n g) paths)
      end;
      let spanner_checked = Option.is_some env.fixed || spanner_ok ~g ~h ~bound:w.bound ~stretch in
      if not spanner_checked then fail acc "spanner is not a subgraph or misses its stretch bound"
      else if Array.length pairs > 0 && not (routes_ok h pairs paths) then
        fail acc "a routed path leaves the spanner or misses its endpoints"

(* One soak: every batch is an op.  A batch's sample is the wall time between
   its [on_batch] callback and the previous one; the first batch also pays
   for copying the inputs and the full certificate, so it is reported apart
   ([first_batch_ms]), as is the closing full audit ([audit_ms]). *)
let soak_op w env acc tally rng ~events ~batch ~requests =
  let spanner =
    match env.fixed with Some b -> b.spanner | None -> invalid_arg "Perf_workload.soak_op: no spanner"
  in
  let config =
    { Soak.default with events; batch; requests; alpha = w.bound; seed = Prng.int rng 0x3fffffff }
  in
  let last = ref (now ()) and first = ref true in
  let on_batch (s : Soak.batch_stats) =
    let t = now () in
    let ms = 1000.0 *. (t -. !last) in
    last := t;
    acc.attempted <- acc.attempted + 1;
    if !first then begin
      first := false;
      acc.first_batch_ms <- acc.first_batch_ms +. ms
    end
    else sample acc ~ms ~items:s.Soak.bs_events;
    kept acc ~m_h:s.Soak.bs_m_spanner ~m_g:s.Soak.bs_m_graph;
    acc.stretch <- max acc.stretch s.Soak.bs_dist_stretch;
    acc.swept <- acc.swept + s.Soak.bs_swept;
    acc.swept_base <- acc.swept_base + s.Soak.bs_groups;
    acc.dirty <- acc.dirty + s.Soak.bs_dirty;
    acc.readded <- acc.readded + s.Soak.bs_readded;
    if not s.Soak.bs_certified then fail acc "a churn batch ended uncertified"
  in
  let failed_before = acc.failed in
  match
    Trace.with_span ~name:"bench.op" ~args:[ ("op", string_of_int acc.soak_runs) ] (fun () ->
        Perf_layers.layer tally "soak" (fun () -> Soak.run ~on_batch config ~graph:env.g ~spanner))
  with
  | r ->
      acc.soak_runs <- acc.soak_runs + 1;
      acc.audit_ms <- acc.audit_ms +. (1000.0 *. (now () -. !last));
      (* a failed closing audit fails the last batch, unless it already failed *)
      if (not r.Soak.r_final_certified) && acc.failed = failed_before then
        fail acc "the closing audit of a soak is uncertified"
  | exception e ->
      acc.attempted <- acc.attempted + 1;
      fail acc (Printexc.to_string e)

type stop = Ops of int | Seconds of float

(* Run ops until [stop]: [Ops k] stops once [k] ops were attempted,
   [Seconds s] once [s] seconds have passed (at least one op either way).
   Every run starts from a copy of [env.ops_rng], so two runs of one
   workload repeat the same ops. *)
let run w env ~stop ~tally =
  let acc = fresh_acc () in
  let rng = Prng.copy env.ops_rng in
  let start = now () in
  let continue () =
    acc.attempted = 0
    || match stop with Ops k -> acc.attempted < k | Seconds s -> now () -. start < s
  in
  let i = ref 0 in
  while continue () do
    tally.Perf_layers.op <- !i;
    let op_rng = Prng.split rng in
    (match w.op with
    | Build_certify | Route -> pipeline_op w env acc tally op_rng !i
    | Churn { events; batch; requests } -> soak_op w env acc tally op_rng ~events ~batch ~requests);
    incr i
  done;
  acc
