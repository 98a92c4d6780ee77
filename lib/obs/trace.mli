(** Hierarchical tracing spans with Chrome trace-event JSON export.

    A span measures one phase of the pipeline: wall-clock duration plus the
    GC allocation delta (minor/major words allocated on the calling domain
    while the span was open).  Spans nest naturally — {!with_span} inside
    {!with_span} — and spans opened on spawned domains carry that domain's id
    as the trace [tid], so a [Parallel.map_range] fan-out renders as one lane
    per domain in the viewer.

    Export is the Chrome trace-event format (complete ["ph":"X"] events),
    loadable in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}.
    Activation: set the [DCS_TRACE=<file>] environment variable (the file is
    written by an [at_exit] hook) or pass [--trace FILE] to the CLI.

    When {!Obs.tracing} is [false], {!with_span} runs its argument directly
    after a single flag check — no clock reads, no allocation. *)

type span = {
  name : string;
  tid : int;  (** id of the domain the span ran on *)
  ts_us : float;  (** start, microseconds since process start *)
  dur_us : float;
  minor_words : float;  (** words allocated in the domain's minor heap *)
  major_words : float;
  major_collections : int;  (** major GC cycles completed while open *)
  args : (string * string) list;  (** extra key/value payload *)
}

type counter_sample = {
  cname : string;  (** counter track name, e.g. ["memory"] *)
  ctid : int;
  cts_us : float;
  values : (string * float) list;  (** one series per key *)
}

val with_span : ?args:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** [with_span ~name f] runs [f ()], recording a span around it when tracing
    is enabled.  The span is recorded (with the duration up to the raise)
    even if [f] raises; the exception is re-raised.  [args] adds extra
    key/value pairs to the event's [args] object.  Each span end also emits a
    ["memory"] counter sample (current [heap_words], plus [rss_kb] where
    procfs exists), taken just before the span's end timestamp so that its
    cost counts towards the span itself rather than its parent. *)

val counter : ?ts_us:float -> name:string -> (string * float) list -> unit
(** [counter ~name values] records one sample of the counter track [name]
    (Chrome ["ph":"C"]; each key of [values] renders as one stacked series).
    No-op when tracing is disabled.  [ts_us] defaults to now. *)

val instant : ?args:(string * string) list -> string -> unit
(** [instant name] records a zero-duration instant event (a vertical tick in
    the viewer); no-op when tracing is disabled. *)

val enable : file:string -> unit
(** Turn tracing on and arrange for {!write} [file] to run at process exit.
    Idempotent: the last file wins, the exit hook is registered once. *)

val snapshot : unit -> span list
(** All spans recorded so far, in completion order.  Thread-safe. *)

val counter_snapshot : unit -> counter_sample list
(** All counter samples recorded so far, in record order.  Thread-safe. *)

val clear : unit -> unit
(** Drop all recorded spans and counter samples (tests). *)

val to_json : unit -> string
(** The recorded spans (["ph":"X"]) and counter samples (["ph":"C"]) as a
    Chrome trace-event JSON document:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. *)

val summary : unit -> (string * int * float) list
(** Per-span-name aggregate [(name, count, total_us)], sorted by name; the
    phase-breakdown table of the bench harness is rendered from this. *)

type profile_row = {
  pname : string;
  pcount : int;
  ptotal_us : float;
  pminor_words : float;
  pmajor_words : float;
  pmajor_collections : int;
}

val profile : unit -> profile_row list
(** Per-span-name wall/alloc/GC attribution, busiest first (ties broken by
    name).  The CLI's [--profile] table is rendered from this. *)

val write : string -> unit
(** Write {!to_json} to the given path. *)
