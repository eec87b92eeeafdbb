(** The full interconnect-planning pipeline of the paper's §5
    experiment, producing one Table-1 row per circuit.

    Steps: build the planning instance (partition, floorplan, tiles,
    routing, repeaters), measure [T_init], min-period retime to get
    [T_min], set [T_clk = T_min + clk_fraction (T_init - T_min)],
    generate the retiming constraints once, then run LAC-retiming
    under them: its round 0 is the plain min-area retiming
    ({!run.minarea}), so one flow solver serves both columns.  When
    LAC-retiming cannot reach zero violations, a second planning
    iteration expands the congested soft blocks (paper §5) and
    re-plans.

    Entry points: {!plan_checked} runs the whole pipeline once;
    {!prepare} and {!plan_prepared} split it so a resident [prepared]
    and compiled solver ({!compile_solver}) serve repeated requests.
    These three report failures as {!error}, never as an escaping
    exception. *)

type run = {
  instance : Build.instance;
  t_init : float;
  t_min : float;
  t_clk : float;
  minarea : Lac.outcome;
  lac : Lac.outcome;
  second : (second, string) result option;
      (** [None]: no second iteration was attempted (disabled, or the
          first iteration already reached zero violations).
          [Some (Error msg)]: a failed expansion re-build.  The
          planner no longer produces it: {!Build.expand} re-plans from
          the first instance's already checked sequential view and
          cannot fail. *)
}

and second = {
  instance2 : Build.instance;
  lac2 : (Lac.outcome, string) result;
      (** [Error] models the paper's s1269 case: the target period can
          become infeasible after a drastic floorplan change *)
}

(** Structured planning failure, so callers keep running on a bad
    request (the serving daemon, long-lived embedders).  Besides
    ordinary pipeline failures it captures the two exception families
    a planning run can raise — sanitizer violations and routing dead
    ends — so no pipeline entry point below lets an exception
    escape. *)
type error =
  | Failed of string  (** ordinary pipeline failure, human-readable *)
  | Routing_failed of { src : int; dst : int; reason : string }
      (** {!Lacr_routing.Maze.Routing_error}: the global router could
          not connect [src]→[dst] *)
  | Sanitizer_violation of { invariant : string; detail : string }
      (** {!Lacr_util.Sanitize.Violation}: an internal invariant check
          failed (only reachable with the sanitizer enabled) *)

val error_code : error -> string
(** Stable machine-readable code: ["plan_failed"], ["routing_error"]
    or ["sanitize_violation"] — the wire protocol's error vocabulary;
    never extended without a DESIGN.md §10 note. *)

val error_message : error -> string
(** Human-readable rendering, one line. *)

(** Everything {!plan_checked} derives from a netlist before the
    retiming solves: the built instance, the period analysis ([t_init]/[t_min]/
    the frozen [t_clk]) and the constraint system generated once at
    [t_clk].  Immutable once built — a resident copy (the daemon's
    warm cache) can serve any number of {!plan_prepared} calls. *)
type prepared = {
  p_instance : Build.instance;
  p_t_init : float;
  p_t_min : float;
  p_t_clk : float;
  p_constraints : Lacr_retime.Constraints.t;
}

val plan_checked :
  ?config:Config.t ->
  ?second_iteration:bool ->
  ?trace:Lacr_obs.Trace.ctx ->
  Lacr_netlist.Netlist.t ->
  (run, error) result
(** The single-shot pipeline, with structured errors and no escaping
    exceptions ({!error_message} renders a failure for a human).
    [second_iteration] (default [true]) controls the expansion
    re-plan.

    [trace] (default disabled) wraps the whole run in a [plan] span
    and threads the observability context through every stage: build
    (with per-stage child spans), routing, repeater insertion, (W,D)
    computation, constraint generation, min-period feasibility, the
    LAC run (one [lac.round] span per re-weighting round) and the
    optional [plan.second] re-plan.  Counter and histogram aggregates
    are bit-identical for every [config.domains]; enabling tracing
    changes no field of the returned {!run}. *)

val prepare :
  ?config:Config.t ->
  ?trace:Lacr_obs.Trace.ctx ->
  Lacr_netlist.Netlist.t ->
  (prepared, error) result
(** The front half of {!plan_checked}: build the instance, measure the
    periods, freeze [t_clk], generate the constraints.  Owns a fresh
    worker pool for the duration of the call (size from
    [config.domains]); wrapped in a [plan.prepare] span. *)

val retiming_setup :
  ?pool:Lacr_util.Pool.t ->
  ?trace:Lacr_obs.Trace.ctx ->
  Build.instance ->
  float * float * float * Lacr_retime.Constraints.t
(** The retiming set-up step of {!prepare} on an already built
    instance: [(t_init, t_min, t_clk, constraints)] — the (W,D)
    backend from [config.paths_mode], the minimum period under the
    instance's pin constraints, [t_clk] from [config.clk_fraction], and
    the constraint system at [t_clk] (pruned per
    [config.prune_constraints]).  [pool] defaults to sequential;
    wrapped in a [retiming.setup] span. *)

val plan_prepared :
  ?second_iteration:bool ->
  ?session:Lacr_retime.Min_area.compiled ->
  ?trace:Lacr_obs.Trace.ctx ->
  prepared ->
  (run, error) result
(** The back half: the LAC run and the optional expansion
    re-plan, under a [plan.solve] span.  [prepare |> plan_prepared]
    equals {!plan_checked} field for field — every stage is bit-deterministic
    in the pool size, so the split (and any reuse of the [prepared]
    across calls) is observationally invisible apart from latency.

    [session] passes a resident compiled flow solver (from
    {!compile_solver}) to the first-iteration LAC run: the compile
    step is skipped and the solve warm-starts from whatever potentials
    the previous call through the same [session] left behind.
    Canonical potentials make the labelling — and hence the whole
    [run] — identical with or without it; only the solver counters and
    latency move.  The second-iteration re-plan never uses [session]
    (its constraint system is fresh). *)

val compile_solver : prepared -> (Lacr_retime.Min_area.compiled, string) result
(** Compile the constraint system of a [prepared] into a reusable flow
    solver, for threading through {!plan_prepared}[ ~session] — the
    cross-request warm-start of the serving daemon's cache.  One
    [session] must only ever be used by one call at a time (the
    compiled solver is internally mutable). *)

val growth_for : Build.instance -> Lac.outcome -> string -> float
(** Soft-block growth factors for the second iteration: proportional
    to the block tile's excess area, zero for untouched blocks. *)

val growth_table : Build.instance -> Lac.outcome -> (string * float) list
(** The factors behind {!growth_for}, as a name-sorted association
    list.  When several violated tiles land in one soft block the
    largest factor wins (max-merge), so the table is independent of
    the order violations are reported in.  Exposed for tests. *)
