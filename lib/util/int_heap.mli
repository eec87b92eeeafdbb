(** Monomorphic binary min-heap with [int] priorities and [int]
    values, stored as two flat arrays.

    For hot integer Dijkstra and A* loops (the dense (W,D) rows, the
    min-cost-flow engine, the maze router): [push]/[pop_min] never
    allocate once capacity is reached, and there is no float
    conversion on the priority path.  There is no decrease-key; push
    duplicates and skip stale pops. *)

type t

val create : ?capacity:int -> unit -> t
(** Fresh empty heap (initial [capacity] default 16). *)

val is_empty : t -> bool

val size : t -> int

val clear : t -> unit
(** Constant time; keeps the allocated capacity for reuse. *)

val push : t -> prio:int -> int -> unit

val min_prio : t -> int
(** Priority of the minimum entry.  @raise Invalid_argument when
    empty. *)

val pop_min : t -> int
(** Remove the minimum entry and return its value.
    @raise Invalid_argument when empty. *)
