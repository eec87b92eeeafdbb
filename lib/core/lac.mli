(** LAC-retiming: local area constrained retiming by adaptively
    re-weighted minimum-area retiming (paper §4.2, the core
    contribution).

    The algorithm follows the paper's six steps:
    + generate edge and clocking constraints once;
    + start from uniform area weights;
    + solve the weighted min-area retiming (a min-cost-flow dual);
    + compute per-tile consumption AC(t);
    + stop at zero violations or once more than [n_max] rounds in a
      row have not improved (keeping the best labelling seen);
    + otherwise re-weight every tile by
      [(1 - alpha) + alpha * AC(t)/C(t)] and repeat.

    Round 0 runs under uniform weights, so it is the plain min-area
    retiming that Table 1 compares against: one run returns both
    outcomes ({!outcomes}) from one flow solver.

    Because the constraint system is fixed for the whole run, the
    weighted min-area solves form a {e successive instance} series:
    the flow network is compiled once and every round after the first
    warm-starts from the previous round's dual potentials
    ([Lacr_retime.Min_area.solve_compiled]).  Per-round solver
    counters land in {!outcome.solver}.

    Tiles with (near-)zero capacity use a small floor so the ratio
    stays finite; weights are clamped to a generous ceiling. *)

type outcome = {
  labels : int array;
  n_foa : int;  (** flip-flops violating local area constraints *)
  n_f : int;  (** total flip-flops *)
  n_fn : int;  (** flip-flops inside interconnects *)
  n_wr : int;  (** weighted min-area retimings performed *)
  exec_seconds : float;
  trace : (int * float) list;
      (** per iteration: (N_FOA, total weighted FF area) — the
          convergence record the daemon's result body carries and
          [lacr verify-warm] compares *)
  solver : Lacr_mcmf.Mcmf.stats list;
      (** per iteration, parallel to [trace]: flow-solver counters
          (phases, Dijkstra settles, blocking-flow pushes, warm-start
          hit) — the observability hook for the warm-started engine *)
}

type outcomes = {
  minarea : outcome;
      (** round 0: the plain min-area retiming, the comparison column
          of Table 1.  [n_wr = 1], [trace = []], [solver] holds round
          0's counters, and [exec_seconds] runs from the start of the
          LAC run to the end of round 0. *)
  lac : outcome;  (** the best labelling over all rounds *)
}

val retime :
  ?alpha:float ->
  ?n_max:int ->
  ?max_wr:int ->
  ?reuse:bool ->
  ?session:Lacr_retime.Min_area.compiled ->
  ?pool:Lacr_util.Pool.t ->
  ?obs:Lacr_obs.Trace.ctx ->
  Build.instance ->
  Lacr_retime.Constraints.t ->
  (outcomes, string) result
(** LAC-retiming.  Defaults come from the instance configuration.
    [reuse] (default [true]) runs the warm-started compiled solver
    across rounds; [reuse:false] recompiles cold every round (the
    pre-engine behaviour, kept as [lacr verify-warm]'s reference) —
    outcomes are bit-identical either way.  [session] supplies a
    compiled solver held resident across whole runs (the serving
    daemon's warm cache, see {!Planner.compile_solver}): the compile
    step is skipped and the first round warm-starts from the potentials the
    previous run left in the instance.  It must have been compiled
    from the same graph and constraint system; outcomes are again
    bit-identical (canonical potentials), only latency and the
    per-round solver counters change.  [pool] (shared with the
    planner's (W,D)/constraint stages) parallelizes the integer
    flip-flop accounting; outcomes are pool-size independent.

    The timestamps behind {!outcome.exec_seconds} come from the [obs]
    context's clock ({!Lacr_obs.Trace.clock_of}): the wall clock when
    observability is disabled, the clock given to
    {!Lacr_obs.Trace.create} otherwise.

    With {!Lacr_util.Sanitize} enabled ([LACR_SANITIZE=1] or
    {!Config.t.sanitize}), every round re-verifies the labelling
    (host pinned, legality, cycle flip-flop sums), cross-checks the
    pooled flip-flop count against a sequential recount, and audits
    the per-tile accounting; violations raise
    {!Lacr_util.Sanitize.Violation}.

    [obs] (default disabled) wraps the run in a [lac.retime] span with
    one sibling [lac.round] span per re-weighting round, each carrying
    the round's violation count and the flow solver's counters
    (phases, settles, pushes, arc scans, warm-start); [lac.rounds] /
    [lac.violations] and the [mcmf.*] counters accumulate alongside.
    The [lac.retime] span's [stop] attribute says why the loop ended,
    and one [lac.stop.<reason>] counter counts it: [zero_violations],
    [stalled] (more than [n_max] non-improving rounds) or [max_wr]
    (the round cap).  Enabling it changes no outcome. *)

(** {1 Abstract-problem variant}

    The same algorithm over a bare {!Problem.t} — used by tests, the
    exact-reference comparison and any caller that is not running the
    full physical-planning pipeline. *)

val retime_problem :
  ?alpha:float ->
  ?n_max:int ->
  ?max_wr:int ->
  ?reuse:bool ->
  ?session:Lacr_retime.Min_area.compiled ->
  ?pool:Lacr_util.Pool.t ->
  ?obs:Lacr_obs.Trace.ctx ->
  Problem.t ->
  Lacr_retime.Constraints.t ->
  (outcomes, string) result
