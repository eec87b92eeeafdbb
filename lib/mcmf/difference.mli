(** Systems of difference constraints [x(a) - x(b) <= c].

    Two services, both over parallel constraint arrays:
    - {!feasible_arrays}: Bellman-Ford feasibility / witness
      assignment, used by the clock-period feasibility test of
      min-period retiming;
    - {!compile_arrays} / {!reoptimize}: the successive-instance form —
      check feasibility and build the flow network {e once}, then
      minimize a series of linear objectives over the same constraints
      by LP duality through {!Mcmf}.  This is the engine of min-area
      retiming and of the LAC re-weighting loop, where the constraint
      system is fixed for the whole run and only the tile-weighted
      objective changes per round.  The first {!reoptimize} of an
      instance solves cold, every later one warm (see {!Mcmf}).

    {!check} and {!check_arrays} verify an assignment.

    Constraint right-hand sides are integers (flip-flop counts);
    objective coefficients are reals (tile-weighted areas). *)

type constr = { a : int; b : int; bound : int }
(** The constraint [x(a) - x(b) <= bound]. *)

val feasible_arrays :
  n:int -> a:int array -> b:int array -> bound:int array -> m:int -> int array option
(** [feasible_arrays ~n ~a ~b ~bound ~m] returns a satisfying integer
    assignment of the system formed by the first [m] entries (the
    Bellman-Ford shortest-path witness, each value in
    [\[-n*max_bound, 0\]]) or [None] when it contains a negative
    cycle.  The min-period binary search runs it on probes of
    hundreds of thousands of constraints. *)

type scratch
(** The Bellman-Ford arrays of {!feasible_arrays} over a fixed node
    count, reusable by a series of probes. *)

val scratch : int -> scratch
(** [scratch n] serves systems over nodes [0 .. n-1]. *)

val feasible_in :
  scratch -> a:int array -> b:int array -> bound:int array -> m:int -> bool
(** {!feasible_arrays} in [scratch]: [true] when the system is
    feasible, with the same witness in {!scratch_labels} until the
    next call on the scratch. *)

val scratch_labels : scratch -> int array
(** The witness of the last feasible {!feasible_in} call; shared, not
    a copy. *)

type objective_error =
  | Infeasible_constraints
  | Unbounded_objective

(** {1 Compiled successive-instance API} *)

type instance
(** A feasible constraint system compiled to a reusable min-cost-flow
    network.  Feasibility is established once at compile time; no
    {!reoptimize} re-proves it. *)

val compile_arrays :
  n:int ->
  a:int array ->
  b:int array ->
  bound:int array ->
  int ->
  (instance, objective_error) result
(** [compile_arrays ~n ~a ~b ~bound m] proves the system formed by the
    first [m] entries feasible (or returns [Infeasible_constraints])
    and builds its flow network.  The network holds its own copy of
    the constraints, so the arrays may be reused afterwards.

    The network adds box constraints [|x(v) - x(0)| <= 4n + 8] so the
    LP is never unbounded in a direction the caller does not care
    about; {!Unbounded_objective} is reported only if an optimum pins
    against one, which callers treat as a modelling error. *)

val reoptimize :
  ?trace:Lacr_obs.Trace.ctx ->
  instance ->
  objective:float array ->
  (int array, objective_error) result
(** Minimize [sum objective.(v) * x(v)] over the compiled system,
    returning a fresh optimal integral assignment normalized so that
    [x(0) = 0] — the one per-node array a solve allocates.  Warm and
    cold solves return bit-identical assignments ({!Mcmf} canonicalizes
    the potentials). *)

val solver_stats : instance -> Mcmf.stats
(** Flow-solver counters of the last {!reoptimize}. *)

val check : constr list -> int array -> bool
(** [check cs x] verifies every constraint (used by tests and by the
    plan certificate on the pin constraints). *)

val check_arrays :
  a:int array -> b:int array -> bound:int array -> m:int -> int array -> bool
(** {!check} over parallel arrays (first [m] entries). *)
