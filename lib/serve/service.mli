(** lacrd request handling: circuit resolution, the warm/cold planning
    paths over the {!Cache}, per-request observability contexts, and
    the service-lifetime metric aggregate.

    Thread/domain safety: one [t] is shared by all of the server's
    worker domains.  Each request gets its own private
    {!Lacr_obs.Trace} context (so concurrent plans never share
    observability scratch); the aggregate and the cache are
    mutex-guarded.

    Determinism: the ["result"] subtree of a plan response is a pure
    function of (circuit, configuration, [second_iteration]) — warm
    and cold paths render it byte-identically, and it equals
    {!result_body} of the single-shot
    {!Lacr_core.Planner.plan_checked} of the same inputs.  Latency,
    cache disposition and solver counters live outside that
    subtree. *)

type t

val create : ?config:Lacr_core.Config.t -> ?second_iteration:bool -> unit -> t
(** A fresh service.  [config] (default {!Lacr_core.Config.default})
    and [second_iteration] (default [true]) are fixed for the
    service's lifetime — they are part of every cache fingerprint's
    implicit context. *)

val handle : t -> Protocol.request -> Lacr_obs.Jsonx.t
(** Serve one queued request ([plan] or [stats]; anything else gets
    [unknown_method]).  Never raises: planning failures, routing dead
    ends and sanitizer violations come back as error responses with
    the stable codes of {!Lacr_core.Planner.error_code}.

    [plan] params: ["circuit"] (required; a suite name or
    ["hier:UNITS[:SEED]"]), ["second_iteration"] (optional bool),
    ["metrics"] (optional bool: echo this request's counters and
    histograms), ["stall_ms"] (optional int: hold the worker before
    solving — the deterministic backpressure drill; at most 10 000,
    larger values get [bad_request] before any worker sleeps, since a
    parked worker also holds up shutdown).  The response
    carries [circuit], [cache] (["hit"]/["miss"]), [elapsed_us] and
    the deterministic [result] subtree. *)

val merge_counters : (string * int) list -> (string * int) list -> (string * int) list
(** Merge two name-sorted counter lists, adding the values of names
    present in both; the result is name-sorted. *)

val metrics_response : t -> id:int -> extra:(string * int) list -> Lacr_obs.Jsonx.t
(** The [metrics] method: the aggregate of every served request plus
    cache hit/miss counters and the server's [extra] counters, in the
    {!Lacr_obs.Export.metrics_json} schema (so the Export validators
    accept it).  Summing the per-request [metrics] echoes of all plan
    responses reproduces the aggregate's planner counters exactly. *)

val metrics_body : t -> extra:(string * int) list -> Lacr_obs.Jsonx.t
(** The body of {!metrics_response}, without the envelope. *)

val cache_counts : t -> int * int
(** [(hits, misses)] of the warm-state cache. *)

val result_body : Lacr_core.Planner.run -> Lacr_obs.Jsonx.t
(** The deterministic plan-result rendering — exposed so the load
    generator and the tests can build reference documents from fresh
    {!Lacr_core.Planner.plan_checked} runs and compare bytes. *)

val reference_result :
  ?config:Lacr_core.Config.t ->
  ?second_iteration:bool ->
  string ->
  (Lacr_obs.Jsonx.t, string) result
(** Resolve a circuit, plan it single-shot in-process, and render
    {!result_body} — the comparison oracle for [--verify]. *)
