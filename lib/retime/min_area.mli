(** (Weighted) minimum-area retiming (paper §3.1 and §4.2).

    Classical min-area retiming minimizes the number of flip-flops
    [sum_e w_r(e)] under a clock-period constraint.  The weighted
    variant scales each flip-flop by the area weight [A(u)] of the
    tile holding its fan-in unit, giving the objective
    [sum_e A(src e) w_r(e)] — equivalently
    [const + sum_v r(v) (fi(v) - fo(v))] with
    [fi(v) = sum_{u in FI(v)} A(u)] and [fo(v) = A(v) |FO(v)|].
    Both reduce to the difference-constraint LP solved by min-cost
    flow in [Lacr_mcmf].

    The LAC loop solves a {e series} of these problems over one fixed
    constraint system; {!compile} + {!solve_compiled} is the
    successive-instance path that checks feasibility and builds the
    flow network once: the first solve of a compiled instance runs
    cold, every later one warm-starts from the previous optimum's
    potentials.  {!solve_weighted} compiles a fresh instance per call,
    so it always solves cold — the reference the warm path is checked
    against. *)

type solution = {
  labels : int array;  (** optimal retiming, [r(host) = 0] *)
  ff_count : int;  (** unweighted flip-flop count after retiming *)
  ff_area : float;  (** weighted flip-flop area after retiming *)
  stats : Lacr_mcmf.Mcmf.stats;
      (** flow-solver counters of this solve (phases, settles, pushes,
          warm-start) — surfaced into the LAC trace *)
}

val solve : Graph.t -> Constraints.t -> (solution, string) Stdlib.result
(** Unit area weights: plain min-area retiming. *)

val solve_weighted :
  ?trace:Lacr_obs.Trace.ctx ->
  Graph.t ->
  Constraints.t ->
  area:float array ->
  (solution, string) Stdlib.result
(** [area.(v)] is the flip-flop area weight charged to vertex [v]'s
    tile (must be non-negative).  One-shot: compiles a fresh instance
    and solves it cold.  @raise Invalid_argument on arity mismatch or
    a negative weight. *)

(** {1 Successive-instance API} *)

type compiled
(** Constraint system compiled once (feasibility proven, flow network
    and objective scratch allocated) for a series of re-weighted
    solves over the same graph and constraints. *)

val compile : Graph.t -> Constraints.t -> (compiled, string) Stdlib.result

val solve_compiled :
  ?trace:Lacr_obs.Trace.ctx -> compiled -> area:float array -> (solution, string) Stdlib.result
(** One weighted solve over the compiled instance, warm from the
    previous solve's dual potentials when there was one; results are
    bit-identical to a cold solve (the flow engine canonicalizes its
    potentials).  [labels] is the one per-vertex array a solve
    allocates.  [trace] feeds the flow-solver counters into the
    observability context. *)

val weighted_ff_area : Graph.t -> area:float array -> int array -> float
(** [sum_e A(src e) w_r(e)] under a labelling. *)

val shared_registers : Graph.t -> int array -> int
(** Register count under maximum fan-out sharing
    ([sum_v max over fan-out edges of w_r]); always at most the
    per-edge {!solution.ff_count}.  The paper's N{_F} is the per-edge
    count; this is what the netlist rebuild actually instantiates. *)
