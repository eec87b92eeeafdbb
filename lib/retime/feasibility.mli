(** Clock-period feasibility and minimum-period retiming.

    Min-period retiming is the classical binary search over the
    distinct D(u,v) values: a period [T] is achievable iff the
    difference-constraint system of {!Constraints.generate} is
    feasible.  This gives the paper's [T_min]; [T_init] is simply
    {!Graph.clock_period} of the unretimed graph. *)

val feasible :
  ?extra:Lacr_mcmf.Difference.constr list ->
  Graph.t ->
  Paths.wd ->
  period:float ->
  int array option
(** A legal retiming labelling achieving the period ([r(host)]
    normalized to 0), or [None]. *)

type min_period_result = {
  period : float;
  labels : int array;  (** witness retiming, [r(host) = 0] *)
}

val min_period :
  ?extra:Lacr_mcmf.Difference.constr list ->
  ?trace:Lacr_obs.Trace.ctx ->
  Graph.t ->
  Paths.wd ->
  min_period_result
(** Smallest achievable clock period over the candidate set of
    distinct path delays in [[bound - period_tol, T_init + period_tol]],
    where [bound] is {!Paths.cycle_ratio_lower_bound} closed over the
    pins of [extra] (the streamed frontier's [fbound]).  Always
    succeeds: the largest candidate (the total delay of the heaviest
    minimum-weight path) is feasible with the identity retiming.

    [trace] (default disabled) wraps the search in a
    [feasibility.min_period] span with [candidates] and [probes]
    attributes, and adds them to the [feasibility.candidates] and
    [feasibility.probes] counters.

    @raise Invalid_argument when a streamed [wd] was closed over a
    vertex ([fpinned]) that [extra] does not pin: its bound can
    exclude the true minimum of the less constrained system. *)
