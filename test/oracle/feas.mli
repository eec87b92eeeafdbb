(** The FEAS algorithm (Leiserson-Saxe): an O(V E) feasibility test
    and retiming constructor for a target clock period that needs no
    W/D matrices.

    FEAS repeats up to |V| - 1 times: compute each vertex's
    combinational arrival time on the retimed graph; increment [r(v)]
    for every vertex whose arrival exceeds the period.  If the period
    is still violated afterwards, no retiming achieves it.

    This implementation exists as an independent cross-check of the
    constraint-based path (see the test suite) and as the faster
    choice when W/D matrices are not otherwise needed.  It cannot
    express extra constraints such as I/O pinning — use
    {!Lacr_retime.Feasibility} for the planner flow. *)

val feasible : Lacr_retime.Graph.t -> period:float -> int array option
(** A legal retiming achieving the period (labels normalized to
    [r(host) = 0]), or [None]. *)

val min_period :
  Lacr_retime.Graph.t -> Lacr_retime.Paths.wd -> Lacr_retime.Feasibility.min_period_result
(** Binary search over distinct path delays using FEAS probes;
    produces the same period as {!Lacr_retime.Feasibility.min_period} without
    extra constraints. *)
