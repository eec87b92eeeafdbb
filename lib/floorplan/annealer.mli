(** Simulated-annealing floorplanner over sequence pairs.

    Cost is a weighted sum of chip area and the half-perimeter wire
    length of inter-block nets (estimated from block centres).  Moves:
    swap in [pos] only, swap in both sequences, and reshaping a soft
    block among its candidate aspect ratios. *)

type net = { pins : int array; weight : float }
(** Pins are block indices; weight scales the net's HPWL term
    (typically the number of netlist edges between the blocks). *)

type options = {
  initial_temperature : float;  (** default 1.0e3 *)
  cooling : float;  (** geometric factor per stage, default 0.92 *)
  moves_per_stage : int;  (** default 60 *)
  stages : int;  (** default 70 *)
  area_weight : float;  (** default 1.0 *)
  wirelength_weight : float;  (** default 0.5 *)
  shape_choices : int;  (** aspect candidates per soft block, default 5 *)
}

val default_options : options

type result = {
  sequence : Sequence_pair.t;
  dims : (float * float) array;
  packing : Sequence_pair.packing;
  cost : float;
}

val floorplan : Lacr_util.Rng.t -> Block.t array -> net list -> result
(** Anneals with {!default_options}.  Deterministic given the generator
    state.  @raise Invalid_argument on an empty block array or a net
    pin out of range. *)

val cost_of :
  options -> Block.t array -> net list -> Sequence_pair.packing -> float
(** The annealer's objective, exposed for tests. *)
