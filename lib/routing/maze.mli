(** Congestion-aware maze routing on the tile-graph cell grid.

    Routing demand is tracked per grid-cell boundary.  Step cost is
    the Manhattan pitch scaled by a congestion penalty that grows as a
    boundary fills and sharply once it overflows, plus a negotiated
    PathFinder-style history term accumulated across rip-up passes, so
    re-route passes steer nets around persistently contested
    boundaries instead of oscillating between equal-cost alternatives.

    The search itself runs on fixed-point integer costs (2{^20} units
    per mm) over a reusable epoch-stamped {!scratch}: no per-query
    allocation, O(1) clears, and a total (cost, cell id) priority
    order that makes every engine deterministic. *)

exception Routing_error of { src : int; dst : int; reason : string }
(** Raised instead of returning a degenerate [[src]] path when no
    route exists and {!Lacr_util.Sanitize.enabled} is on.  Unreachable
    cells are structurally impossible on a well-formed tile grid, so
    this always indicates corruption. *)

type usage
(** Mutable per-boundary demand and history over one
    {!Lacr_tilegraph.Tilegraph.t}. *)

val create : Lacr_tilegraph.Tilegraph.t -> usage

val capacity : usage -> float
(** Per-boundary track capacity (from the tile-graph config). *)

val demand : usage -> int -> int -> float
(** [demand u a b] on the boundary between adjacent cells [a], [b].
    @raise Invalid_argument if the cells are not adjacent. *)

val history : usage -> int -> int -> float
(** Accumulated negotiated-congestion history on a boundary. *)

val add_path : usage -> int list -> unit
(** Add one track of demand along a cell path. *)

val remove_path : usage -> int list -> unit

val max_utilization : usage -> float
(** max over boundaries of demand/capacity (0 when untouched). *)

val overflow : usage -> float
(** Total demand beyond capacity, over all boundaries. *)

val charge_history : usage -> decay:float -> unit
(** One negotiation round: decay every boundary's history by [decay]
    and charge currently overflowed boundaries in proportion to their
    overflow ratio.  Call once per rip-up pass, before re-routing. *)

type checkpoint
(** Snapshot of present demand (history is intentionally excluded:
    reverting a failed pass keeps the charge so the next pass prices
    the conflict differently). *)

val checkpoint : usage -> checkpoint

val restore : usage -> checkpoint -> unit

val assert_demand_consistent : usage -> segments:int list list -> unit
(** Recompute per-boundary demand from [segments] and compare with the
    incremental accounting; raises {!Lacr_util.Sanitize.Violation}
    (invariant ["route.usage"]) on any mismatch.  Catches
    add/remove-path drift hidden by the clamp in demand updates. *)

type engine =
  | Dijkstra  (** plain label-setting search, the reference engine *)
  | Astar  (** Manhattan×pitch admissible lower bound (default) *)

type scratch
(** Reusable search state: epoch-stamped visitation arrays and a
    monomorphic integer heap.  One scratch must never be shared
    between concurrently running searches. *)

val create_scratch : usage -> scratch

val route :
  usage ->
  scratch ->
  ?engine:engine ->
  congestion_weight:float ->
  src:int ->
  dst:int ->
  unit ->
  int list
(** Cheapest path as an inclusive cell sequence ([[src]] when
    [src = dst]).  Both engines return cost-identical paths; ties
    break deterministically on (cost, cell id).  The returned path is
    {e not} added to the usage — callers decide.  On an
    unreachable destination (impossible via well-formed tile graphs)
    raises {!Routing_error} under the sanitizer and degrades to
    [[src]] otherwise. *)

val path_cost : usage -> congestion_weight:float -> int list -> int
(** Exact fixed-point cost {!route} minimizes, recomputed over an
    explicit path — the oracle for the engine-equivalence tests. *)
