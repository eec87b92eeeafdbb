(** The W and D matrices of Leiserson-Saxe retiming, in two backends.

    For a path [p : u ~> v], [w(p)] is the sum of edge weights and
    [d(p)] the sum of vertex delays including both endpoints.  Then
    [W(u,v) = min w(p)] and [D(u,v) = max d(p)] over minimum-weight
    paths.  Computed per source as a shortest-path sweep on weights
    followed by a longest-delay pass over the tight-edge DAG (tight
    edges cannot form a cycle because the circuit has no zero-weight
    cycle).

    The {e streamed} backend is the planner's engine at every size. It
    keeps only the probe-relevant frontier. Probed periods always lie
    in [[bound - period_tol, clock_period + period_tol]]: the
    cycle-ratio bound (closed over the caller's pins, see
    {!cycle_ratio_lower_bound}) caps them from below, and the identity
    retiming makes the initial clock period feasible, capping the
    min-period search from above (the {!period_tol} admits D values
    equal to it up to float noise). So the frontier stores the
    {e near} band ([D] within the probe window) in full, and {e far}
    pairs ([D] beyond every probe, hence violating all of them
    uniformly) only after an exact dominance reduction: a far pair
    dominated by a far tight-DAG predecessor is implied by the
    survivor plus edge constraints at every probed period, so removing
    it changes no feasibility verdict and no label vector.
    Periods outside that window ({!in_window}) are answered
    graph-direct by the callers.  Constraint generation does not read
    the frontier at all: systems are enumerated directly from the
    graph per source ({!source_pass_flat} / {!prune_target_pass_flat}),
    so every constraint system a caller can hold is the same for both
    backends — as are min-period results and plans (QCheck-enforced
    in the test suite).

    The {e dense} backend materializes the full [n x n] matrices with
    its own Dijkstra and Kahn row kernels.  It costs O(n^2) memory
    (~1.6 GB at n = 10^4, impossible at 10^5) and is kept as the
    independent oracle the tests compare the streamed engine against
    ({!iter_pairs}, brute-force cross-checks). *)

module Mode : sig
  type t =
    | Auto  (** the default: streamed at every size *)
    | Dense  (** the full matrices, kept as the test oracle *)
    | Stream
end

type dense = {
  w : int array array;  (** [w.(u).(v)]; [max_int] when unreachable *)
  d : float array array;  (** [d.(u).(v)]; meaningful when reachable *)
}

val period_tol : float
(** [1e-9], the one period tolerance of the retiming stack: a pair
    violates [period] when [D > period + period_tol], and the
    min-period candidates are the D values in
    [[bound - period_tol, clock_period + period_tol]].  The frontier's
    [threshold], [ffar] and {!in_window}, the min-period search
    ({!Feasibility}) and constraint generation ({!Constraints}) all
    read it, so they cannot drift apart. *)

type frontier = {
  fn : int;  (** vertex count *)
  threshold : float;
      (** [fbound - period_tol]: near pairs with [D >= threshold] are
          retained.  Closed over pins, it rises with the bound, so the
          frontier keeps only the pairs a pinned min-period search or a
          probe at or above the pinned T_min can read. *)
  fbound : float;
      (** {!cycle_ratio_lower_bound} of the graph, closed over
          [fpinned]: the min-period search's lower end *)
  fpinned : int array;
      (** the vertices the bound closed the graph over (ascending):
          {!pinned_vertices} of the [extra] given to {!compute}, empty
          without pins.  [Feasibility.min_period] refuses a frontier
          whose pins its own [extra] does not cover. *)
  ffar : float;
      (** near/far cut: initial clock period
          [+ period_tol + period_tol] (the highest min-period candidate
          plus the constraint-test tolerance); far pairs ([D > ffar])
          are retained only up to dominance *)
  row_off : int array;  (** [fn + 1] CSR offsets, grouped by source *)
  fdst : int array;  (** target per retained pair, ascending within a row *)
  fwgt : int array;  (** W(u,v) per retained pair *)
  fdly : float array;  (** D(u,v) per retained pair *)
}

type wd = Dense of dense | Streamed of frontier

val auto_cutoff : int
(** Vertex count above which [Mode.Auto] uses the streamed backend:
    0, so [Auto] streams at every size. *)

val compute :
  ?mode:Mode.t ->
  ?pool:Lacr_util.Pool.t ->
  ?trace:Lacr_obs.Trace.ctx ->
  ?extra:Lacr_mcmf.Difference.constr list ->
  Graph.t ->
  wd
(** Sources are independent, so the rows fill in parallel over [pool]
    (default {!Lacr_util.Pool.sequential}): each worker owns its
    scratch and writes only its own rows (dense) or its own
    chunk-indexed arena, merged in chunk order (streamed).  Every row
    is a pure function of the graph and its source and the streamed
    frontier is stored canonically (sources ascending, targets
    ascending), so the result is bit-identical for every pool size.

    [mode] defaults to [Mode.Auto] (streamed); the planner passes
    [Config.paths_mode] through, and callers that read the matrices
    ask for [Mode.Dense].

    [extra] (default none) is the pin list the caller's min-period
    search and constraint generation take: the streamed frontier's
    bound ({!cycle_ratio_lower_bound}) is closed over the vertices it
    pins, which raises the retention threshold to the pinned T_min's
    own lower bound.  The dense backend ignores it.

    [trace] (default disabled) wraps the computation in a
    [paths.compute] span (streamed: with [bound] and [pinned]
    attributes) and accumulates [paths.rows] plus
    [paths.reachable_pairs] (dense) / [paths.frontier_pairs]
    (streamed) counters per chunk; the disabled path adds no work and
    no allocation to the row kernels. *)

val num_vertices : wd -> int

val pinned_vertices : Graph.t -> Lacr_mcmf.Difference.constr list -> int array
(** The vertices [p] that the constraints tie to the host: both
    [r(p) - r(host) <= 0] and [r(host) - r(p) <= 0] are present
    ({!Graph.io_pin_constraints} gives every primary input and
    output).  Ascending, without duplicates. *)

val cycle_ratio_lower_bound : ?extra:Lacr_mcmf.Difference.constr list -> Graph.t -> float
(** [max(max_v d(v), max_C d(C)/w(C))] over the cycles of the graph
    closed through the host: each vertex [p] that [extra] pins
    ({!pinned_vertices}) gets virtual arcs host -> p (weight 0) and
    p -> host (weight 1), the host counting delay 0.  No retiming that
    satisfies [extra] clocks below it: a pinned path keeps its
    registers, so a cycle through the host is a sum of paths each
    with [d <= (w + 1) T] (DESIGN §3).  Without pins (the default) it
    is the plain cycle-ratio bound.

    Computed exactly by Howard's policy iteration on the CSR, per
    strongly connected component.  The result is always the ratio of
    a real cycle (summed from the head of one of its registered arcs),
    so it is a valid bound even if the iteration stops at its cap.
    This is both the min-period search's lower end and the streamed
    frontier's retention threshold.
    @raise Failure on a zero-weight cycle. *)

val iter_pairs : wd -> (int -> int -> int -> float -> unit) -> unit
(** [iter_pairs wd f] calls [f u v w_uv d_uv] on every reachable pair.
    Self pairs use the trivial single-vertex path ([W(u,u) = 0],
    [D(u,u) = d(u)]), the Leiserson-Saxe convention under which a
    vertex slower than the period yields an infeasible constraint.
    Dense backend only; @raise Invalid_argument on [Streamed]. *)

val iter_frontier : wd -> (int -> int -> int -> float -> unit) -> unit
(** [iter_frontier wd f] calls [f u v w_uv d_uv] on every retained
    frontier pair, sources ascending and targets ascending.  Streamed
    backend only; @raise Invalid_argument on [Dense]. *)

val frontier_weight : frontier -> int -> int -> int option
(** [W(u,v)] if the pair is retained (binary search within the row). *)

val in_window : frontier -> period:float -> bool
(** Whether the frontier answers probes at [period] exactly:
    [period >= threshold] and [period + period_tol <= ffar], which holds
    for every min-period candidate.  Outside the window the near band may
    be incomplete (below the threshold) or a dominance-dropped far pair
    may lack a violating ancestor (above the initial clock period), so
    callers enumerate graph-direct there. *)

val distinct_delays : wd -> lo:float -> hi:float -> float array
(** The candidate clock periods of a min-period binary search: the
    distinct [D] values in the window [\[lo, hi\]], ascending and
    deduplicated under [Float.compare].  Dense: over all reachable
    pairs; streamed: over the retained frontier.  Over the min-period
    window [\[bound - period_tol, clock_period + period_tol\]] the two
    backends yield the identical array (the near band is retained in
    full).
    The window is applied before sorting, and the sort runs on
    order-preserving int keys through {!Lacr_util.Int_sort}. *)

(** {1 Graph-direct constraint passes}

    How [Constraints.generate] builds every system, whatever the
    backend: per-source sweeps over the graph written straight into
    merged CSR arrays ([Lacr_arena.Chunked]) with no per-row lists.
    The test suite checks them against a dense-matrix scan and greedy
    prune. *)

type flat_rows = {
  sr_off : int array;  (** [n + 1] CSR offsets, grouped by source *)
  sr_dst : int array;  (** surviving targets, ascending within a row *)
  sr_wgt : int array;  (** W(u,v) per surviving pair *)
  sr_candidates : int;  (** period-violating pairs before pruning *)
  sr_scanned : int;  (** sources actually swept (< n under the gate) *)
}

val source_pass_flat :
  ?pool:Lacr_util.Pool.t ->
  ?frontier:frontier ->
  prune:bool ->
  Graph.t ->
  period:float ->
  flat_rows
(** Row [u] lists the period-violating [(v, W(u,v))] pairs of source
    [u] ([D(u,v) > period + period_tol]; the self pair only when
    [W(u,u) = 0]), targets ascending, recomputed per source with a
    Dijkstra + tight-DAG sweep: the dense scan's rows at every period,
    without dense matrices.  [sr_candidates] counts them.

    [prune:true] keeps only the source-side dominance survivors: a
    candidate is dropped exactly when an earlier-ordered candidate
    (smaller W, or equal W from a larger index) lies on a
    minimum-weight path to it — tight-DAG ancestry, the same verdicts
    as the dense greedy's implication tests.

    Sources are swept pool-parallel into per-worker chunk arenas
    merged in source order, so the result is bit-identical for every
    pool and chunk size.  Without [frontier] every source is swept,
    which is exact at every period.

    [frontier] enables the {e active-source gate}: when [period] lies
    inside the frontier's retention window ({!in_window}), a source
    whose frontier row holds no pair with [D > period + period_tol]
    provably has no period-violating pair — the near band is retained in full,
    and every dominance-dropped far pair has a retained far ancestor in
    the same row — so its sweep is skipped outright.  Skipped rows are
    exactly the empty rows, so the output is unchanged; only
    [sr_scanned] (and the wall clock) reflects the gate.  Outside the
    window the gate abstains and every source is swept. *)

type flat_cols = {
  tc_off : int array;  (** [n + 1] CSR offsets, grouped by target *)
  tc_src : int array;  (** kept sources, in the dense consider order *)
  tc_wgt : int array;  (** W(u,v) per kept pair *)
}

val prune_target_pass_flat : ?pool:Lacr_util.Pool.t -> Graph.t -> flat_rows -> flat_cols
(** The mirrored target-side prune over the source-pass survivors, as
    a target-major CSR: one capped reverse-graph sweep per target with
    two or more surviving sources.  Each target's kept sources are in
    the dense greedy's consider order (ascending W, equal weights by
    descending source index), computed pool-parallel over targets with
    in-place slice compaction — no per-target lists. *)
