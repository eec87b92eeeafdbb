(** Half-perimeter wire length over point lists: the formula the
    floorplan annealer's cost folded over block centres, kept as the
    reference its inline cost ({!Lacr_floorplan.Annealer.cost_of}) is
    checked against bit for bit. *)

val center : Lacr_geometry.Rect.t -> Lacr_geometry.Point.t
(** The rectangle's centre point. *)

val hpwl : Lacr_geometry.Point.t list -> float
(** Half-perimeter wire length of a point set: the bounding box's
    width plus height, folded with [min]/[max] from the first point;
    0.0 for fewer than two points. *)

val annealer_cost :
  Lacr_floorplan.Annealer.options ->
  Lacr_floorplan.Annealer.net list ->
  Lacr_floorplan.Sequence_pair.packing ->
  float
(** Area weight times the packing's area plus wire-length weight times
    the sum, in net order, of each net's weight times the {!hpwl} of
    its pins' block centres. *)
