(** Global routing of inter-block nets (paper §4.1).

    Each net (one driver cell, many sink cells) gets a Steiner
    topology whose edges are maze-routed with congestion awareness;
    negotiated rip-up and re-route passes then rebuild the nets that
    cross overflowed boundaries with a stiffer congestion price plus
    the accumulated PathFinder history term.  Outputs per-sink
    driver-to-sink cell paths — the chains that repeater planning
    segments into interconnect units.

    {2 Schedule and determinism}

    Each pass routes its nets one at a time in ascending index order,
    and commits each Steiner edge's path to the shared usage as soon
    as it is routed, so every route prices everything committed before
    it.  The {!Lacr_util.Pool} domains only build the Steiner
    topologies and recover the sink paths, each a pure function of one
    net, so the routed result is bit-identical for every [--domains]
    value. *)

type net = {
  source_cell : int;
  sink_cells : int array;
}

type routed_net = {
  net : net;
  segments : int list list;  (** maze paths, one per Steiner edge *)
  sink_paths : int list array;
      (** per sink (input order): inclusive source-to-sink cell path
          along the routed tree *)
  wirelength : float;  (** mm over all segments *)
}

val default_passes : int
(** Rip-up/re-route passes after the initial pass when [route_all]
    is not told otherwise: 2. *)

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
  ?passes:int ->
  ?pool:Lacr_util.Pool.t ->
  ?trace:Lacr_obs.Trace.ctx ->
  Lacr_tilegraph.Tilegraph.t ->
  net array ->
  result
(** Route [nets] with A* maze search: an initial pass, then up to
    [passes] (default {!default_passes}) rip-up/re-route passes while
    overflow remains.  [pool] (default {!Lacr_util.Pool.sequential})
    supplies the domains for topology construction and sink recovery.
    [trace] (default disabled) wraps routing in a [route.all] span
    with [route.initial] / per-pass [route.ripup] child spans (the
    latter carrying per-pass overflow attrs) and records
    [route.nets], [route.reroutes] and [route.fallbacks] counters. *)

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
