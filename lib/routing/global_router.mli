(** Global routing of inter-block nets (paper §4.1).

    Each net (one driver cell, many sink cells) gets a Steiner
    topology whose edges are maze-routed with congestion awareness;
    negotiated rip-up and re-route passes then rebuild the nets that
    cross overflowed boundaries with a stiffer congestion price plus
    the accumulated PathFinder history term.  Outputs per-sink
    driver-to-sink cell paths — the chains that repeater planning
    segments into interconnect units.

    {2 Parallel schedule and determinism}

    Negotiation consumes its work queue in fixed-order slices of
    [spec_batch] nets.  Each slice is routed speculatively in parallel
    across the {!Lacr_util.Pool} domains against the shared usage
    frozen at the slice start: each net's result is a pure function of
    (usage, net) because speculative demand lives in a per-worker
    private overlay.  Results are then committed sequentially in queue
    order, and only nets whose committed paths cross a boundary that
    is both overflowed and shared with another net of the same slice
    are ripped back out and re-enqueued (their route was priced blind
    to that competitor).  The slice size bounds how stale the frozen
    usage can get, so the speculative schedule matches the routing
    quality of a fully sequential one.  Neither the routes nor the
    aggregate outcome depend on the pool size — the routed result is
    bit-identical for every [--domains] value. *)

type net = {
  source_cell : int;
  sink_cells : int array;
  weight : float;  (** demand multiplier, usually 1.0 *)
}

type routed_net = {
  net : net;
  segments : int list list;  (** maze paths, one per Steiner edge *)
  sink_paths : int list array;
      (** per sink (input order): inclusive source-to-sink cell path
          along the routed tree *)
  wirelength : float;  (** mm over all segments *)
}

type options = {
  passes : int;  (** rip-up/re-route rounds after the initial pass, default 2 *)
  congestion_weight : float;  (** initial pass, default 1.0 *)
  reroute_weight : float;  (** later passes, default 4.0 *)
  history_decay : float;
      (** per-pass decay of the negotiated-congestion history term,
          default 0.7 *)
  spec_rounds : int;
      (** speculative routing attempts per net before its residual
          conflicts are left to rip-up, default 3 *)
  spec_batch : int;
      (** nets routed concurrently per speculative slice — the
          staleness window of the frozen usage snapshot, and the width
          offered to the pool.  The default 1 degenerates to the
          fully sequential incremental schedule (best routing quality;
          the pool still parallelizes topology construction and sink
          recovery); raise it on wide machines to trade a slightly
          staler congestion picture for speculative routing width.
          Results are bit-identical across pool sizes for every value. *)
  use_astar : bool;  (** A* engine (default); plain Dijkstra when off *)
}

val default_options : options

type result = {
  nets : routed_net array;
  usage : Maze.usage;
  total_wirelength : float;
  overflow : float;
  max_utilization : float;
  pass_overflow : float array;
      (** overflow trajectory: after the initial pass, then after each
          executed rip-up pass — non-increasing by construction
          (a pass that would regress is reverted, keeping its history
          charge) *)
}

val route_all :
  ?options:options ->
  ?pool:Lacr_util.Pool.t ->
  ?trace:Lacr_obs.Trace.ctx ->
  Lacr_tilegraph.Tilegraph.t ->
  net array ->
  result
(** [pool] (default {!Lacr_util.Pool.sequential}) supplies the domains
    for speculative routing.  [trace] (default disabled) wraps routing
    in a [route.all] span with [route.initial] / per-pass
    [route.ripup] child spans (the latter carrying per-pass overflow
    attrs) and records [route.nets], [route.reroutes],
    [route.spec_rounds], [route.conflicts] and [route.fallbacks]
    counters. *)

val sink_paths_of_segments :
  Lacr_tilegraph.Tilegraph.t ->
  ?fallbacks:Lacr_obs.Trace.counter ->
  source:int ->
  sinks:int array ->
  int list list ->
  int list array
(** Recover per-sink source-to-sink paths over the union of routed
    segments: one int-indexed CSR + one BFS from [source], then a
    parent walk per sink.  A sink disconnected from the union raises
    {!Maze.Routing_error} under {!Lacr_util.Sanitize.enabled};
    otherwise the degenerate direct link [[source; sink]] is returned
    and counted in [fallbacks].  Exposed for tests — [route_all] uses
    the same recovery on every net. *)

val path_length : Lacr_tilegraph.Tilegraph.t -> int list -> float
(** Manhattan length in mm of an inclusive cell path. *)
