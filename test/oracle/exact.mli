(** Exact LAC-retiming by branch and bound, for tiny instances.

    The paper observes that LAC-retiming is an NP-complete integer
    program and proposes the adaptive re-weighting heuristic; this
    module solves the problem exactly on small graphs so the
    heuristic's optimality gap can be measured (see the test suite and
    the bench harness).

    Search: depth-first assignment of retiming labels in
    [\[-range, range\]] (host pinned at 0), pruning with incremental
    difference-constraint checks.  Objective: lexicographic
    (violations, flip-flop count).  Exponential — intended for graphs
    of at most ~15 vertices. *)

type solution = {
  labels : int array;
  n_foa : int;
  n_f : int;
  explored : int;  (** search nodes visited *)
}

val solve : ?range:int -> Lacr_core.Problem.t -> Lacr_retime.Constraints.t -> solution option
(** [range] defaults to 3.  [None] when no legal labelling exists in
    the box (the identity always exists when the constraints are
    feasible with labels in range).  @raise Invalid_argument when the
    graph exceeds 24 vertices (guards against accidental exponential
    blow-ups). *)
