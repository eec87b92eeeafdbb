(** Retiming graphs in the Leiserson-Saxe sense.

    Vertices are functional or interconnect units carrying a
    propagation delay [d(v) >= 0]; directed edges carry a flip-flop
    count [w(e) >= 0].  A distinguished {e host} vertex models the
    environment: primary outputs feed it, it feeds primary inputs, and
    retimings are normalized to [r(host) = 0] so interface latency is
    preserved. *)

type edge = { src : int; dst : int; weight : int }

type t

val create : delays:float array -> edges:edge list -> host:int -> t
(** @raise Invalid_argument on negative delays/weights, vertex indices
    out of range, or [host] out of range. *)

val of_seqview : Lacr_netlist.Seqview.t -> t
(** One vertex per unit plus a fresh isolated zero-delay host vertex
    (index [num_units]).  No host edges are added: circuits with
    combinational input-to-output paths would otherwise acquire a
    zero-weight cycle.  Interface latency is preserved by pinning the
    I/O labels instead — see {!io_pin_constraints}. *)

val io_pin_constraints :
  Lacr_netlist.Seqview.t -> host:int -> Lacr_mcmf.Difference.constr list
(** The constraints [r(v) = r(host)] for every primary input and
    output, to be passed as [extra] to [Constraints.generate].  With
    these pinned, no register crosses the circuit interface, so the
    environment's view of latency is exactly preserved (the paper's
    "correct timing and system behaviors are guaranteed"). *)

val num_vertices : t -> int
val num_edges : t -> int
val host : t -> int
val delay : t -> int -> float
val edges : t -> edge array

(** {1 CSR fanout view}

    Flat compressed-sparse-row arrays over the fanout adjacency,
    grouped by source vertex in original edge order: vertex [v]'s
    out-edges occupy slots [csr_offsets t .(v)] to
    [csr_offsets t .(v+1) - 1] of [csr_dst]/[csr_weight].  These (and
    {!delays}) back the hot (W,D) path loops; they are shared internal
    arrays — callers must not mutate them. *)

val csr_offsets : t -> int array
(** [num_vertices t + 1] entries. *)

val csr_dst : t -> int array
val csr_weight : t -> int array

val delays : t -> float array
(** The shared vertex-delay array (same caveat: read-only). *)

val total_ffs : t -> int
(** Sum of edge weights. *)

val retime : t -> int array -> (t, string) result
(** [retime g r] applies the labelling: [w_r(e) = w(e) + r(dst) -
    r(src)].  Fails if any retimed weight is negative or the labelling
    does not have [r(host) = 0]. *)

val retimed_weight : t -> int array -> edge -> int
(** Weight of one edge under a labelling (no validation). *)

val is_legal : t -> int array -> bool
(** All retimed weights non-negative and [r(host) = 0]. *)

val clock_period : t -> float
(** Maximum combinational (zero-weight) path delay, vertex delays
    inclusive.  @raise Failure on a zero-weight cycle (malformed
    circuit). *)
