(** Fiduccia-Mattheyses bipartitioning.

    Cells carry areas; nets are pin sets (any arity >= 1).  The
    algorithm runs gain-bucket passes, moving one cell at a time under
    an area-balance constraint and keeping the best prefix of each
    pass, until a pass yields no improvement. *)

type problem = {
  n_cells : int;
  areas : float array;  (** per cell, > 0 *)
  nets : int array array;  (** each net lists its pin cells *)
}

val validate : problem -> (unit, string) result

val cut_size : problem -> int array -> int
(** Number of nets with pins on both sides under a 0/1 assignment. *)

val side_areas : problem -> int array -> float * float

type options = {
  balance_tolerance : float;
      (** each side must keep at least [(0.5 - tol)] of total area;
          default 0.1 *)
  max_passes : int;  (** default 12 *)
}

val default_options : options

val bipartition : Lacr_util.Rng.t -> problem -> int array
(** A 0/1 side per cell under {!default_options}.  Starts from a
    random balanced assignment; deterministic given the generator
    state.  @raise Invalid_argument on an invalid problem. *)
