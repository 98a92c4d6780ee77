(* Layer attribution for the traced run.

   The runner wraps every call it makes into the library in a
   [bench.<layer>] span (and each whole op in [bench.op]).  The library's own
   spans ([spanner.sampling], [en.repair], [bfs.sweep], ...) then nest inside
   them.  A span's parent is the innermost span that contains it on the same
   domain; its self time is its duration minus the time its children cover;
   its layer is the nearest [bench.*] span at or above it.  Summing self
   times per layer splits the traced op wall time exactly, so the part left
   in [bench.op] itself is the runner's own loop overhead. *)

(* Library counters read around each layer call; their per-layer deltas are
   the per-layer work counts. *)
let counted =
  [
    "bfs_batch.sweeps";
    "bfs_batch.words";
    "spanner.candidate_cache_miss";
    "matching.augmentations";
    "spanner.router_fallbacks";
  ]

type tally = {
  traced : bool;
  handles : (string * Metrics.counter) list;
  sums : (string, float) Hashtbl.t;  (** ["<layer>.<field>"] totals over the run *)
  mutable op : int;  (** id of the op in flight, recorded on its spans *)
}

let tally ~traced =
  {
    traced;
    handles = List.map (fun name -> (name, Metrics.counter name)) counted;
    sums = Hashtbl.create 64;
    op = 0;
  }

let get t key = Option.value ~default:0.0 (Hashtbl.find_opt t.sums key)
let add t key v = Hashtbl.replace t.sums key (get t key +. v)

(* Words allocated so far by this domain.  On OCaml 5 [Gc.quick_stat]'s
   [minor_words] only advances at minor collections, so the minor part comes
   from [Gc.minor_words]; [major_words - promoted_words] adds the blocks
   allocated straight into the major heap. *)
let allocated () =
  let s = Gc.quick_stat () in
  Gc.minor_words () +. s.Gc.major_words -. s.Gc.promoted_words

(* [layer t name f] runs [f ()] as one call into layer [name].  Untraced it
   is [f ()]; traced it records the [bench.<name>] span and adds the call's
   wall time, allocated words, major collections and counter deltas to
   [t]. *)
let layer t name f =
  if not t.traced then f ()
  else begin
    let c0 = List.map (fun (_, h) -> Metrics.counter_value h) t.handles in
    let a0 = allocated () and gcs0 = (Gc.quick_stat ()).Gc.major_collections in
    let t0 = Unix.gettimeofday () in
    let r = Trace.with_span ~name:("bench." ^ name) ~args:[ ("op", string_of_int t.op) ] f in
    let t1 = Unix.gettimeofday () in
    add t (name ^ ".ms") (1000.0 *. (t1 -. t0));
    add t (name ^ ".alloc_w") (allocated () -. a0);
    add t (name ^ ".major_gcs") (float_of_int ((Gc.quick_stat ()).Gc.major_collections - gcs0));
    List.iter2
      (fun (cname, h) before ->
        add t (name ^ "." ^ cname) (float_of_int (Metrics.counter_value h - before)))
      t.handles c0;
    r
  end

(* ---- self-time attribution ---- *)

type row = {
  layer : string;  (** [bench.<layer>] ancestor, ["op"] for [bench.op]'s own time *)
  name : string;  (** span name *)
  count : int;
  total_us : float;  (** summed durations *)
  self_us : float;  (** summed durations minus the time children cover *)
}

let bench_prefix = "bench."

let layer_of_name name =
  let k = String.length bench_prefix in
  if String.length name > k && String.sub name 0 k = bench_prefix then
    Some (String.sub name k (String.length name - k))
  else None

type node = { span : Trace.span; layer : string; mutable child_us : float }

(* Spans of one domain, parents before children: sorted by start, longer
   first on ties.  A stack of open spans gives each span its parent. *)
let attribute (spans : Trace.span list) =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun (s : Trace.span) ->
      Hashtbl.replace by_tid s.tid (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  let nodes = ref [] in
  Hashtbl.iter
    (fun _ group ->
      let sorted =
        List.sort
          (fun (a : Trace.span) (b : Trace.span) ->
            match Float.compare a.ts_us b.ts_us with 0 -> Float.compare b.dur_us a.dur_us | c -> c)
          group
      in
      let stack = ref [] in
      List.iter
        (fun (s : Trace.span) ->
          let end_of (n : node) = n.span.ts_us +. n.span.dur_us in
          let rec pop () =
            match !stack with
            | top :: rest when end_of top <= s.ts_us ->
                stack := rest;
                pop ()
            | _ -> ()
          in
          pop ();
          let parent = match !stack with top :: _ -> Some top | [] -> None in
          let layer =
            match (layer_of_name s.name, parent) with
            | Some l, _ -> l
            | None, Some p -> p.layer
            | None, None -> "none"
          in
          Option.iter (fun p -> p.child_us <- p.child_us +. s.dur_us) parent;
          let n = { span = s; layer; child_us = 0.0 } in
          stack := n :: !stack;
          nodes := n :: !nodes)
        sorted)
    by_tid;
  let rows = Hashtbl.create 32 in
  List.iter
    (fun (n : node) ->
      let key = (n.layer, n.span.name) in
      let self = Float.max 0.0 (n.span.dur_us -. n.child_us) in
      let r =
        match Hashtbl.find_opt rows key with
        | Some r -> r
        | None -> { layer = n.layer; name = n.span.name; count = 0; total_us = 0.0; self_us = 0.0 }
      in
      Hashtbl.replace rows key
        { r with count = r.count + 1; total_us = r.total_us +. n.span.dur_us; self_us = r.self_us +. self })
    !nodes;
  Hashtbl.fold (fun _ r acc -> r :: acc) rows []
  |> List.sort (fun (a : row) (b : row) ->
         match String.compare a.layer b.layer with 0 -> Float.compare b.self_us a.self_us | c -> c)

(* summed self times in [layer], of the spans called [name] when given *)
let self_us ?name rows layer =
  List.fold_left
    (fun acc (r : row) ->
      if r.layer = layer && Option.fold ~none:true ~some:(String.equal r.name) name then
        acc +. r.self_us
      else acc)
    0.0 rows

(* summed durations of the spans called [name], in [layer] when given *)
let total_us ?layer rows name =
  List.fold_left
    (fun acc (r : row) ->
      if r.name = name && Option.fold ~none:true ~some:(String.equal r.layer) layer then
        acc +. r.total_us
      else acc)
    0.0 rows

let layers rows = List.sort_uniq String.compare (List.map (fun (r : row) -> r.layer) rows)

let layers_json ~workload ~ops rows =
  let op_us = total_us ~layer:"op" rows "bench.op" in
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\n  \"schema\": \"dcs-perf-layers/1\",\n  \"workload\": \"%s\",\n"
    (Obs.json_escape workload);
  Printf.bprintf b "  \"ops\": %d,\n  \"op_ms_total\": %s,\n  \"layers\": [" ops
    (Obs.json_float (op_us /. 1000.0));
  List.iteri
    (fun i layer ->
      let self = self_us rows layer in
      Printf.bprintf b "%s\n    {\"layer\": \"%s\", \"self_ms\": %s, \"share\": %s, \"spans\": ["
        (if i > 0 then "," else "")
        (Obs.json_escape layer)
        (Obs.json_float (self /. 1000.0))
        (Obs.json_float (if op_us > 0.0 then self /. op_us else 0.0));
      List.iteri
        (fun j r ->
          Printf.bprintf b "%s\n      {\"name\": \"%s\", \"count\": %d, \"total_ms\": %s, \"self_ms\": %s}"
            (if j > 0 then "," else "")
            (Obs.json_escape r.name) r.count
            (Obs.json_float (r.total_us /. 1000.0))
            (Obs.json_float (r.self_us /. 1000.0)))
        (List.filter (fun (r : row) -> r.layer = layer) rows);
      Buffer.add_string b "\n    ]}")
    (layers rows);
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b
