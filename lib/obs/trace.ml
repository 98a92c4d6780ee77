type span = {
  name : string;
  tid : int;
  ts_us : float;
  dur_us : float;
  minor_words : float;
  major_words : float;
  major_collections : int;
  args : (string * string) list;
}

type counter_sample = {
  cname : string;
  ctid : int;
  cts_us : float;
  values : (string * float) list;
}

(* Spans are appended under a mutex at span *end*; a span-per-phase design
   means contention is negligible (spans are milliseconds-scale, not
   per-node).  The lists are kept reversed and flipped on read.
   DOMAIN-SAFE: every read and write of [spans] and [counters] goes through
   [mutex]. *)
let mutex = Mutex.create ()
let spans : span list ref = ref []
let counters : counter_sample list ref = ref []

let record s = Mutex.protect mutex (fun () -> spans := s :: !spans)

let domain_id () = (Domain.self () :> int)

let counter ?ts_us ~name values =
  if !Obs.tracing then begin
    let ts = match ts_us with Some t -> t | None -> Obs.now_us () in
    let s = { cname = name; ctid = domain_id (); cts_us = ts; values } in
    Mutex.protect mutex (fun () -> counters := s :: !counters)
  end

(* One memory sample per call site: current heap plus RSS when procfs is
   there.  Emitted at every span end, this draws the memory timeline under
   the span flamegraph in the trace viewer. *)
let memory_counter heap_words =
  let values =
    ("heap_words", float_of_int heap_words)
    ::
    (match Obs.rss_kb () with Some kb -> [ ("rss_kb", float_of_int kb) ] | None -> [])
  in
  counter ~name:"memory" values

let with_span ?(args = []) ~name f =
  if not !Obs.tracing then f ()
  else begin
    let ts = Obs.now_us () in
    let gc0 = Gc.quick_stat () in
    Fun.protect
      ~finally:(fun () ->
        let gc1 = Gc.quick_stat () in
        (* sampled before the end timestamp: the procfs read is this span's
           cost, not its parent's self time *)
        memory_counter gc1.Gc.heap_words;
        let te = Obs.now_us () in
        record
          {
            name;
            tid = domain_id ();
            ts_us = ts;
            dur_us = te -. ts;
            minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
            major_words = gc1.Gc.major_words -. gc0.Gc.major_words;
            major_collections = gc1.Gc.major_collections - gc0.Gc.major_collections;
            args;
          })
      f
  end

let instant ?(args = []) name =
  if !Obs.tracing then
    record
      {
        name;
        tid = domain_id ();
        ts_us = Obs.now_us ();
        dur_us = 0.0;
        minor_words = 0.0;
        major_words = 0.0;
        major_collections = 0;
        args;
      }

let snapshot () = Mutex.protect mutex (fun () -> List.rev !spans)

let counter_snapshot () = Mutex.protect mutex (fun () -> List.rev !counters)

let clear () =
  Mutex.protect mutex (fun () ->
      spans := [];
      counters := [])

let event_json s =
  let buf = Buffer.create 160 in
  Buffer.add_string buf
    (Printf.sprintf {|{"name":"%s","cat":"dcs","ph":"X","pid":1,"tid":%d,"ts":%s,"dur":%s,"args":{|}
       (Obs.json_escape s.name) s.tid (Obs.json_float s.ts_us) (Obs.json_float s.dur_us));
  Buffer.add_string buf
    (Printf.sprintf {|"minor_words":%s,"major_words":%s,"major_collections":%d|}
       (Obs.json_float s.minor_words) (Obs.json_float s.major_words) s.major_collections);
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf
        (Printf.sprintf {|,"%s":"%s"|} (Obs.json_escape k) (Obs.json_escape v)))
    s.args;
  Buffer.add_string buf "}}";
  Buffer.contents buf

(* Chrome counter events ("ph":"C"): each key in [args] becomes one series
   of the counter track named [cname]. *)
let counter_json c =
  let buf = Buffer.create 120 in
  Buffer.add_string buf
    (Printf.sprintf {|{"name":"%s","cat":"dcs","ph":"C","pid":1,"tid":%d,"ts":%s,"args":{|}
       (Obs.json_escape c.cname) c.ctid (Obs.json_float c.cts_us));
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf {|"%s":%s|} (Obs.json_escape k) (Obs.json_float v)))
    c.values;
  Buffer.add_string buf "}}";
  Buffer.contents buf

let to_json () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf {|{"traceEvents":[|};
  let sep = ref false in
  let item s =
    if !sep then Buffer.add_char buf ',';
    sep := true;
    Buffer.add_char buf '\n';
    Buffer.add_string buf s
  in
  List.iter (fun s -> item (event_json s)) (snapshot ());
  List.iter (fun c -> item (counter_json c)) (counter_snapshot ());
  Buffer.add_string buf "\n],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

let summary () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let count, total = try Hashtbl.find tbl s.name with Not_found -> (0, 0.0) in
      Hashtbl.replace tbl s.name (count + 1, total +. s.dur_us))
    (snapshot ());
  Hashtbl.fold (fun name (count, total) acc -> (name, count, total) :: acc) tbl []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

type profile_row = {
  pname : string;
  pcount : int;
  ptotal_us : float;
  pminor_words : float;
  pmajor_words : float;
  pmajor_collections : int;
}

(* Per-span-name attribution of wall time, allocation and major collections:
   the data behind the CLI's [--profile] table.  Sorted by total time,
   busiest first (ties by name, so a deterministic workload prints a
   deterministic table). *)
let profile () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let r =
        try Hashtbl.find tbl s.name
        with Not_found ->
          {
            pname = s.name;
            pcount = 0;
            ptotal_us = 0.0;
            pminor_words = 0.0;
            pmajor_words = 0.0;
            pmajor_collections = 0;
          }
      in
      Hashtbl.replace tbl s.name
        {
          r with
          pcount = r.pcount + 1;
          ptotal_us = r.ptotal_us +. s.dur_us;
          pminor_words = r.pminor_words +. s.minor_words;
          pmajor_words = r.pmajor_words +. s.major_words;
          pmajor_collections = r.pmajor_collections + s.major_collections;
        })
    (snapshot ());
  Hashtbl.fold (fun _ r acc -> r :: acc) tbl []
  |> List.sort (fun a b ->
         match compare b.ptotal_us a.ptotal_us with 0 -> compare a.pname b.pname | c -> c)

let write path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_json ()))

(* ---- activation ---- *)

(* DOMAIN-SAFE: mutated only by [enable], which runs during single-domain
   CLI/env startup before any Parallel fan-out; the at_exit hook reads them
   after all domains have joined. *)
let sink = ref None
let hook_registered = ref false

(* An unwritable sink must not turn a finished run into a non-zero exit. *)
let write_or_warn f =
  try write f
  with Sys_error msg ->
    Log.error ~fields:[ ("sink", "trace"); ("path", f); ("error", msg) ] "obs.write_failed"

let enable ~file =
  Obs.set_tracing true;
  sink := Some file;
  if not !hook_registered then begin
    hook_registered := true;
    at_exit (fun () -> match !sink with None -> () | Some f -> write_or_warn f)
  end

let () =
  match Sys.getenv_opt "DCS_TRACE" with
  | Some f when String.trim f <> "" -> enable ~file:(String.trim f)
  | _ -> ()
