(** Generation of the retiming constraint system for a target clock
    period (paper §3.1, Eqns (1) and (2)).

    Constraints are expressed over retiming labels in the
    [Lacr_mcmf.Difference] form [r(a) - r(b) <= bound]:
    - edge constraints: [r(u) - r(v) <= w(e)] for every edge [u -> v]
      (non-negative retimed weights);
    - period constraints: [r(u) - r(v) <= W(u,v) - 1] for every pair
      with [D(u,v) > T] (at least one flip-flop on every too-slow
      path).

    The system is born flat: {!generate} writes the [(a, b, bound)]
    triples straight into exact-length parallel arrays ({!system}) in
    the historical list order — header (extra, then edge constraints
    in edge-array order) followed by the period part — so downstream
    consumers ([Lacr_mcmf.Difference.compile_arrays], feasibility
    probes, the LAC re-weighting loop) never materialize a
    [constr list] or pay [List.length] on a million-constraint system.
    {!to_list} remains as a thin view for tests and small consumers.

    The paper generates this system {e once} per planning run and
    reuses it across all weighted min-area iterations; callers hold on
    to the returned value for that reason. *)

type system = {
  ca : int array;
  cb : int array;
  cbound : int array;
  m : int;  (** live prefix length of the arrays *)
}
(** A difference-constraint system [r(ca.(i)) - r(cb.(i)) <=
    cbound.(i)] for [i < m] as parallel arrays.  Systems returned by
    {!generate} use exact-length arrays ([m] = length), so structural
    equality compares whole systems; {!compile} returns over-allocated
    probe systems where only the [m]-prefix is live. *)

type t = {
  period : float;
  system : system;
  n_edge : int;  (** header length: extra + edge constraints *)
  n_period : int;  (** period-part length ([system.m = n_edge + n_period]) *)
}

val generate :
  ?prune:bool ->
  ?extra:Lacr_mcmf.Difference.constr list ->
  ?pool:Lacr_util.Pool.t ->
  ?trace:Lacr_obs.Trace.ctx ->
  Graph.t ->
  Paths.wd ->
  period:float ->
  t
(** [prune] (default [false]) deduplicates per vertex pair (keeping the
    tightest bound) and drops period constraints implied transitively
    by two tighter ones — the constraint-reduction flavour the paper
    cites from Maheshwari-Sapatnekar as a further speed-up.

    [extra] adds caller constraints (I/O pinning, guards); they join
    the system before pruning, which remains sound because pruning
    only removes constraints implied by kept ones.

    [pool] (default sequential) parallelizes the per-source scans, the
    prune passes (including the target-side pass, sequential in the
    seed) and the arena-to-system assembly; the emitted system —
    content {e and} order — is identical for every pool size, and
    bit-identical to the seed's list assembly over the dense matrices
    (the reference the test suite compares against).

    Generation reads the graph, not the (W,D) matrices: both backends
    run the same per-source sweeps ([Paths.source_pass_flat], and
    [Paths.prune_target_pass_flat] when pruning).  On the streamed
    backend the frontier gates those sweeps: inside the retention
    window, sources whose frontier rows show no pair violating
    [period] are provably constraint-free and are skipped without a
    sweep (see [Paths.source_pass_flat]) — the emitted system is
    unchanged; only the wall clock and the
    [constraints.sources_scanned] counter (now "sources actually
    swept") reflect the gate.

    [trace] (default disabled) wraps generation in a
    [constraints.generate] span and records the
    [constraints.sources_scanned] / [period_candidates] /
    [prune_survivors] totals plus the final [constraints.edge] /
    [constraints.period] counts (carried by the emitters — no
    [List.length]); aggregates are bit-identical for every pool
    size. *)

val satisfied_by : t -> int array -> bool
(** Every constraint checked over the flat arrays — no list walk. *)

val to_list : t -> Lacr_mcmf.Difference.constr list
(** The system as a list, in emission order — a thin view for tests,
    exhaustive solvers and examples; O(m) fresh cons cells per call. *)

val system_bytes : system -> int
(** Approximate resident payload of the system's arrays in bytes
    (3 words per slot, including any over-allocated capacity) — the
    arena-footprint number surfaced by the serve metrics. *)

(** {1 Compiled systems for feasibility probes} *)

type compiled = system

val compile :
  ?extra:Lacr_mcmf.Difference.constr list -> Graph.t -> Paths.wd -> period:float -> compiled
(** The full unpruned system as parallel arrays, for
    [Lacr_mcmf.Difference.feasible_arrays] — the min-period binary
    search path.  Arrays are over-allocated; only the [m]-prefix is
    live.

    A dense [wd] is scanned in full.  A streamed [wd] is read from the
    frontier inside its window ([Paths.in_window]), where the
    dominance-reduced pair set has the same verdicts and labels as the
    full enumeration; at any other period the pairs are enumerated
    graph-direct, which is exact everywhere. *)

type buffer
(** Arrays a series of probe systems is compiled into, one after
    another; they keep their largest size. *)

val buffer : unit -> buffer

val compile_into :
  buffer ->
  ?extra:Lacr_mcmf.Difference.constr list ->
  Graph.t ->
  Paths.wd ->
  period:float ->
  compiled
(** {!compile} into the buffer's arrays: the same constraints in the
    same order.  The result shares the buffer's arrays and is valid
    until the next [compile_into] on the buffer. *)
