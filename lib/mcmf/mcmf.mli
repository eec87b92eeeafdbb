(** Minimum-cost flow via successive shortest paths with node
    potentials (Johnson reduced costs).

    This is the solver behind (weighted) minimum-area retiming: the
    retiming LP is the dual of an uncapacitated min-cost flow, and the
    optimal retiming labels are read off the node potentials (see
    {!Difference} and [Lacr_retime.Min_area]).

    Arc costs are {e integers} (constraint bounds are flip-flop
    counts), so potentials, reduced costs and Dijkstra distances are
    exact integer arithmetic on the hot paths — no float boxing, no
    epsilon comparisons.  Capacities and supplies are floats (tile
    weights are real) and costs may be negative (Bellman-Ford
    bootstraps the initial potentials).

    {2 Reusable instances}

    The instance is persistent across solves: the first {!solve} seals
    the arc set and snapshots capacities; later calls reset the
    residual network in place, pick up the current supplies (see
    {!set_supply}) and reuse every scratch buffer.  An instance that
    has solved before starts from its previous optimum's potentials
    instead of re-running the Bellman-Ford bootstrap whenever they are
    still dual-feasible (verified in one scan) — the
    successive-instance structure of the LAC re-weighting loop, where
    arc costs never change and only the objective does.  A fresh
    instance, or one whose last solve failed, starts cold.

    The optimum stays in the instance: {!potential}, {!flow_on} and
    {!total_cost} read it until the next solve, so a solve allocates
    no per-node or per-arc result.  The potentials are canonical
    (shortest distances from a zero-cost virtual source over the final
    residual graph), so warm-started and cold solves of the same
    instance give bit-identical potentials.

    {2 Phases}

    Each phase runs one Dijkstra on reduced costs, shifts the
    potentials, then saturates the zero-reduced-cost subgraph with a
    Dinic blocking flow.  The phase gathers a node's zero-reduced-cost
    arcs (CSR order kept, capacity ignored: a push only gives capacity
    to the reverse of a gathered arc, which is gathered too) into the
    node's slice of a second CSR held by the instance the first time
    its blocking flow needs them, and every BFS and DFS scans those
    slices, testing only residual capacity.  Each BFS stops once it
    labels the sink, and the DFS enters no other node at the sink's
    level; both skip only dead ends, so the pushes are those of a
    full BFS.  The DFS passes its push limits and results through
    float arrays in the instance, so no float is boxed.  The gather
    costs one int per residual arc (user arcs and the permanent super
    arcs, both directions) plus one per node, allocated at seal time
    and held as long as the instance — also by every compiled solver
    a daemon keeps cached: 0.37 MB for s1423 (45 844 residual arcs)
    and, estimated from the constraint count, about 50 MB at
    hier:200000. *)

type t
(** Mutable problem under construction, then a reusable solver
    instance after the first {!solve}. *)

val create : int -> t
(** [create n] prepares a problem over nodes [0 .. n-1]. *)

val add_arc : t -> src:int -> dst:int -> capacity:float -> cost:int -> int
(** Add a directed arc; returns an arc handle for {!flow_on}.
    Use [infinity] for uncapacitated arcs.
    @raise Invalid_argument after the first {!solve} (the arc set is
    sealed so the adjacency structure can be reused). *)

val set_supply : t -> int -> float -> unit
(** Set the node's supply (positive = source, negative = sink), also
    the way to load a fresh objective between solves.  Total supply
    must cancel to ~0 at [solve] time. *)

type error =
  | Unbalanced of float  (** supplies do not cancel *)
  | Negative_cycle  (** negative-cost cycle of uncapacitated arcs *)
  | Infeasible  (** some supply cannot reach any deficit *)

type stats = {
  phases : int;  (** Dijkstra + blocking-flow rounds of the last solve *)
  settles : int;  (** nodes settled across all phase Dijkstras *)
  pushes : int;  (** arc-level pushes inside blocking flows *)
  arc_scans : int;
      (** arcs examined: each node's zero-reduced-cost gather (its
          residual arcs, once per phase that reaches it), each
          blocking-flow BFS (the gathered arcs it scans before it
          labels the sink) and each DFS visit (its cursor advance plus
          its pushes) *)
  warm_start : bool;
      (** the last solve reused the previous potentials (skipping the
          Bellman-Ford bootstrap) *)
}

val zero_stats : stats

val solve : ?trace:Lacr_obs.Trace.ctx -> t -> (unit, error) result
(** Solve with the current supplies, warm from the previous optimum
    when there is one and it is still dual-feasible, cold (Bellman-Ford
    bootstrap) otherwise.  [trace] (default disabled) accumulates the
    solve's counters into the observability context
    ([mcmf.solves]/[phases]/[settles]/[pushes]/[arc_scans]/
    [warm_starts]/[cold_starts]). *)

val last_stats : t -> stats
(** Counters of the most recent {!solve} (zeroes before the first). *)

(** {2 The optimum}

    These readers return the optimum of a solve that returned [Ok ()],
    until the next {!solve}.  They raise [Invalid_argument] before the
    first successful solve and after one that failed with
    [Negative_cycle] or [Infeasible]. *)

val potential : t -> int -> int
(** Optimal dual value [pi(v)]: [y = -pi] solves [max sum b(v) y(v)]
    s.t. [y(u) - y(v) <= cost(u,v)].  Canonical: independent of
    warm-starting and of which optimal flow the solver reached. *)

val flow_on : t -> int -> float
(** Flow on the arc handle returned by {!add_arc}. *)

val total_cost : t -> float
(** [sum flow * cost] over the arcs added by {!add_arc}. *)

val error_to_string : error -> string
