(** Structured observability for the whole planning pipeline: nested
    wall-clock {e spans}, monotonic {e counters} and fixed-bucket
    {e histograms}, recorded into per-domain scratch and merged in
    deterministic worker-slot order.

    A [ctx] threads through every pipeline stage as an optional
    argument.  {!disabled} (the default everywhere) is a constant: all
    recording entry points reduce to one pattern match, so the
    disabled path adds no allocation and no measurable work to the hot
    kernels.

    {2 Determinism contract}

    Counters and histograms carry integers only and each unit of work
    records exactly once, whichever pool worker claimed it; per-slot
    cells are merged by integer addition in slot order.  Aggregate
    totals are therefore bit-identical for every [--domains] /
    [LACR_DOMAINS] setting.  Span {e timings} are wall-clock and vary
    run to run; span structure (names, nesting, per-track monotone
    timestamps) is stable. *)

type value =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts : float;  (** seconds since context creation, monotone per slot *)
  ev_dur : float;  (** seconds *)
  ev_depth : int;  (** nesting depth at open; 0 = top-level *)
  ev_attrs : (string * value) list;
}

type ctx

val disabled : ctx
(** The no-op context: every operation returns immediately. *)

val create : ?clock:(unit -> float) -> unit -> ctx
(** A live collector.  [clock] (default [Unix.gettimeofday]) supplies
    absolute seconds; timestamps are recorded relative to creation and
    clamped to strictly increase per worker track, so exports are
    monotone even under a stalled or stepping clock.  Tests inject a
    deterministic counter clock. *)

val enabled : ctx -> bool

val clock_of : ctx -> unit -> float
(** The context's clock: the injected one when live, the wall clock
    when disabled.  Callers that time work outside spans (e.g.
    [Lac.exec_seconds]) draw their timestamps here, so injecting a
    clock at {!create} makes every reported duration deterministic —
    this is the planner's single clock-injection point. *)

(** {2 Spans} *)

val with_span : ctx -> ?cat:string -> ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_span ctx name f] runs [f] inside a span on the calling
    domain's track; the span closes (and is recorded) even if [f]
    raises.  [cat] defaults to ["planner"]. *)

val span_attr : ctx -> string -> value -> unit
(** Attach an attribute to the innermost open span of the calling
    domain's track (no-op when none is open) — for values only known
    mid-span, e.g. a round's violation count. *)

(** {2 Counters and histograms}

    Handles are cheap to obtain ([counter]/[histogram] get-or-create
    by name under a registration lock) but hot loops should hoist them
    out.  Recording through a handle takes no lock. *)

type counter

val counter : ctx -> string -> counter
val add : counter -> int -> unit
val incr : counter -> unit

type histogram

val histogram : ctx -> buckets:int array -> string -> histogram
(** [buckets] are inclusive upper bounds (sorted internally); an
    observation lands in the first bucket admitting it, or in the
    implicit trailing overflow bucket.  The first [histogram] call for
    a name fixes its bounds. *)

val observe : histogram -> int -> unit

(** {2 Aggregation} *)

val counter_totals : ctx -> (string * int) list
(** Slot-order merged totals, sorted by name.  Empty when disabled. *)

val histogram_totals : ctx -> (string * int array * int array) list
(** [(name, bounds, counts)] per histogram, sorted by name; [counts]
    has one cell per bound plus the trailing overflow cell. *)

val events : ctx -> (int * event list) list
(** Completed spans per worker slot, each track sorted by start time.
    Slots that recorded nothing are omitted. *)

val span_summary : ?max_depth:int -> ctx -> (int * string * int * float) list
(** [(depth, name, count, total_seconds)] aggregated over the planner
    track's spans of depth [<= max_depth] (default 1), in first-start
    order — the per-stage breakdown behind [Report] and [Export]. *)
