(** Static timing analysis on (retimed) retiming graphs.

    Combinational arrival and required times per vertex under a target
    period, slacks, and critical-path extraction.  Only the tests use
    it today; it is the place to explain {e why} a circuit's period
    is what it is, or which path retiming shortened. *)

type t = {
  period : float;
  arrival : float array;
      (** worst combinational arrival at each vertex's output
          (vertex delay inclusive) *)
  required : float array;
      (** latest time the vertex's output may settle while meeting the
          period downstream *)
  slack : float array;  (** required - arrival *)
}

val analyze : ?labels:int array -> Lacr_retime.Graph.t -> period:float -> (t, string) result
(** [labels] (default: identity) analyzes the graph as retimed.
    Fails on a zero-weight cycle. *)

val worst_slack : t -> float

val critical_path : ?labels:int array -> Lacr_retime.Graph.t -> (int list, string) result
(** Vertices of (one) longest zero-weight path, source to sink —
    the path that sets the clock period. *)

val meets_period : t -> bool
(** True when no slack is negative. *)

val pp_path : Lacr_retime.Graph.t -> Format.formatter -> int list -> unit
(** ["v3(1.20) -> v7(0.45) -> ..."] with per-vertex delays. *)
