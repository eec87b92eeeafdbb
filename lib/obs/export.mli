(** Exporters and validators over a collected {!Trace.ctx}. *)

val chrome_trace : Trace.ctx -> Jsonx.t
(** Chrome [trace_event] document: one complete ("X") event per span,
    one track ([tid]) per worker slot with [thread_name] metadata
    ("planner" for slot 0, "worker-N" for pool domains), timestamps
    and durations in microseconds.  Loadable in [chrome://tracing] and
    Perfetto. *)

val write_chrome_trace : Trace.ctx -> string -> unit

val totals_fields :
  (string * int) list -> (string * int array * int array) list -> (string * Jsonx.t) list
(** The [counters] and [histograms] members of {!metrics_json},
    rendered from name-sorted counter totals and [(name, bounds,
    counts)] histogram totals — the one renderer behind this dump and
    the daemon's metrics dump and per-request echo. *)

val metrics_json : Trace.ctx -> Jsonx.t
(** Flat metrics dump: [{schema: 1, counters: {...}, histograms:
    {name: {bounds, counts}}, spans: [{name, depth, count,
    total_ms}]}].  Counter and histogram totals are the deterministic
    slot-order merges — bit-identical for every pool size. *)

val metrics_csv : Trace.ctx -> string
(** CSV projection of the same dump ([kind,name,key,value] rows). *)

val write_metrics : Trace.ctx -> string -> unit
(** Writes CSV when the path ends in [.csv], JSON otherwise. *)

val validate_trace_string : ?expect:string list -> string -> (int, string) result
(** Checks a Chrome trace document: valid JSON with a [traceEvents]
    array, complete events carrying name/tid/ts/dur, strictly monotone
    timestamps per track, and every [expect]ed span name present.
    Returns the number of span events. *)

val validate_trace_file : ?expect:string list -> string -> (int, string) result

val validate_metrics_string : csv:bool -> string -> (int, string) result
(** Checks a metrics dump (JSON or CSV): parses and contains at least
    one counter.  Returns the counter count. *)

val validate_metrics_file : string -> (int, string) result
