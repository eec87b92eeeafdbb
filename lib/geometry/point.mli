(** 2-D points in chip coordinates (millimetres). *)

type t = { x : float; y : float }

val make : float -> float -> t

val origin : t

val manhattan : t -> t -> float
(** L1 distance, the routing metric used throughout the planner. *)

val euclidean : t -> t -> float

val midpoint : t -> t -> t

val add : t -> t -> t
val sub : t -> t -> t

val equal : t -> t -> bool
(** Exact float equality — intended for points produced by the same
    computation (grid centres, block corners). *)

val to_string : t -> string
