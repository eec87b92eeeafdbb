(** Debug sanitizer: machine-checked solver and data-structure
    invariants, off by default.

    When enabled ([LACR_SANITIZE=1] in the environment,
    [Lacr_core.Config.sanitize], or {!set_enabled}), the solvers
    re-verify their key correctness invariants after every result:
    min-cost-flow conservation and zero-reduced-cost admissibility
    after each [Mcmf.solve], retiming legality and cycle-sum
    preservation plus per-tile area accounting after each LAC round,
    CSR well-formedness in [Retime.Graph], and span-stack balance in
    [Trace].  A failed check raises {!Violation} naming the invariant
    — the runtime counterpart of the [lacr_lint] static rules.

    The checks themselves are generic (plain arrays and closures) so
    this module stays at the bottom of the dependency graph and the
    negative tests can drive them directly with corrupted inputs.

    When disabled, the only cost at a check site is one atomic load
    ({!enabled}), so production runs are unaffected. *)

exception Violation of { invariant : string; detail : string }
(** Raised by every failed check; [invariant] is a stable dotted name
    such as ["mcmf.conservation"] or ["retime.cycle_sum"]. *)

val enabled : unit -> bool
(** Current mode.  Until {!set_enabled} is called, this reflects
    [LACR_SANITIZE=1] (read once, then cached). *)

val set_enabled : bool -> unit
(** Override the mode process-wide (wins over the environment). *)

val with_enabled : bool -> (unit -> 'a) -> 'a
(** Run with the mode forced, restoring the previous mode after —
    including on exceptions.  Not scoped per-domain: intended for
    tests and for the planner's config wiring, both of which toggle
    outside parallel sections. *)

val fail : invariant:string -> string -> 'a
(** Raise {!Violation} unconditionally (call sites gate on
    {!enabled} themselves). *)

val check_csr :
  invariant:string ->
  n:int ->
  m:int ->
  offsets:int array ->
  targets:int array ->
  max_target:int ->
  unit
(** A compressed-sparse-row index is well-formed: [offsets] has [n+1]
    entries starting at 0, monotonically non-decreasing, ending at
    [m]; [targets] holds at least [m] entries, each in
    [0, max_target). *)

val check_flow_conservation :
  invariant:string ->
  n:int ->
  n_handles:int ->
  src:(int -> int) ->
  dst:(int -> int) ->
  flow:(int -> float) ->
  supply:(int -> float) ->
  tol:float ->
  unit
(** Every node's net outflow over the [n_handles] user arcs equals its
    supply to within [tol] (absolute, per node): the solved flow
    actually routes the loaded supplies. *)

val check_admissibility :
  invariant:string ->
  n_arcs:int ->
  src:(int -> int) ->
  dst:(int -> int) ->
  cost:(int -> int) ->
  residual:(int -> float) ->
  pi:int array ->
  eps:float ->
  unit
(** Complementary slackness at optimality: every residual arc with
    more than [eps] remaining capacity has non-negative reduced cost
    [cost + pi(src) - pi(dst)].  (Positive-flow arcs are covered
    through their reverse residual arcs.) *)

val check_cycle_sums :
  invariant:string ->
  n:int ->
  src:int array ->
  dst:int array ->
  w_before:int array ->
  w_after:int array ->
  unit
(** Retiming moves flip-flops without creating or destroying them on
    cycles: around every fundamental cycle of the (undirected)
    edge set, the weight sum is unchanged.  Equivalently the per-edge
    change [w_after - w_before] must be a potential difference
    [r(dst) - r(src)]; the check recovers [r] over a spanning forest
    and verifies every non-tree edge. *)
