(** 2-D points in chip coordinates (millimetres). *)

type t = { x : float; y : float }

val make : float -> float -> t

val origin : t

val manhattan : t -> t -> float
(** L1 distance, the routing metric used throughout the planner. *)

val euclidean : t -> t -> float

val midpoint : t -> t -> t
