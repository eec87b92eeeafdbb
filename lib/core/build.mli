(** Construction of a planning instance: from a netlist to the
    retiming graph with interconnect units and the tile capacities the
    LAC loop constrains against.

    Pipeline (paper Figure 1, left column):
    + sequential view of the netlist;
    + FM k-way partition of the units into circuit blocks;
    + sequence-pair simulated-annealing floorplan (soft blocks sized
      from their logic area, every n-th block hard);
    + tile graph over the resulting chip;
    + unit placement on a regular grid inside each block;
    + congestion-aware global routing of all inter-cell edges;
    + repeater insertion under [l_max], reserving tile area;
    + retiming-graph assembly: one vertex per functional unit, one per
      interconnect unit (routed segment), a host vertex; each netlist
      edge becomes the chain [u -> s1 -> ... -> sm -> v] carrying its
      original flip-flop count on the first link.  The host vertex is
      isolated; interface latency is frozen through the
      [pin_constraints] instead of host edges. *)

(** What an instance keeps of the global routing: its totals, the
    overflow trajectory, the boundary usage and the routed nets
    ([lacr verify-route] routes them again).  The per-net maze paths
    and sink paths are consumed by repeater insertion inside {!build}
    and not kept. *)
type routing = {
  nets : Lacr_routing.Global_router.net array;  (** in routing order *)
  usage : Lacr_routing.Maze.usage;
  total_wirelength : float;  (** mm *)
  overflow : float;
  max_utilization : float;
  pass_overflow : float array;
      (** overflow after the initial pass and after each executed
          rip-up pass *)
}

type instance = {
  circuit : string;
  config : Config.t;
  view : Lacr_netlist.Seqview.t;
  block_of_unit : int array;
  blocks : Lacr_floorplan.Block.t array;
  sequence : Lacr_floorplan.Sequence_pair.t;
  dims : (float * float) array;  (** chosen block outlines *)
  floorplan : Lacr_floorplan.Floorplan.t;
  tilegraph : Lacr_tilegraph.Tilegraph.t;
  occupancy : Lacr_tilegraph.Occupancy.t;
      (** after repeater reservation: remaining = the paper's C(t) *)
  routing : routing;
  graph : Lacr_retime.Graph.t;
  pin_constraints : Lacr_mcmf.Difference.constr list;
      (** I/O pinning: every primary input/output keeps its retiming
          label at 0, preserving interface latency exactly *)
  vertex_tile : int array;
      (** tile per retiming vertex; -1 for the host (I/O flip-flops
          are charged to no tile) *)
  n_units : int;  (** vertices [0 .. n_units-1] are functional units *)
  n_interconnect_units : int;
  n_repeaters : int;
  mm2_per_unit : float;  (** FF-equivalent area to silicon scale *)
}

val build :
  ?config:Config.t ->
  ?pool:Lacr_util.Pool.t ->
  ?trace:Lacr_obs.Trace.ctx ->
  Lacr_netlist.Netlist.t ->
  (instance, string) result
(** [pool] (default sequential) supplies the domains for the parallel
    negotiated global router; routed results are bit-identical for
    every pool size.

    [trace] (default disabled) wraps the pipeline in a [build] span
    with one child span per stage ([build.partition] /
    [build.floorplan] / [build.tilegraph] / [route.all] /
    [build.repeaters] / [build.graph]) and threads the context into
    routing and repeater insertion for their counters. *)

val expand :
  ?pool:Lacr_util.Pool.t ->
  ?trace:Lacr_obs.Trace.ctx ->
  instance ->
  grow:(string -> float) ->
  instance
(** The second planning iteration's instance: the same circuit with
    each soft block's area multiplied by [1 + grow name], re-planned
    from the instance's sequence pair and block outlines (grown blocks
    are scaled isotropically, no annealing) — the paper's "incremental
    change of the floorplan" between planning iterations.  It shares
    the instance's config and sequential view; [pool] and [trace] as
    for {!build}. *)

val interconnect_vertex : instance -> int -> bool
(** True for interconnect-unit vertices (not units, not host). *)
