(** Axis-aligned rectangles (block outlines, tiles, channel regions). *)

type t = { x : float; y : float; w : float; h : float }
(** Lower-left corner [(x, y)], extent [(w, h)]; all in millimetres. *)

val make : x:float -> y:float -> w:float -> h:float -> t
(** @raise Invalid_argument on negative extent. *)

val area : t -> float

val contains : t -> Point.t -> bool
(** Closed on the low edges, open on the high edges, so a grid of
    touching tiles partitions the plane. *)

val overlaps : t -> t -> bool
(** Strict interior overlap — shared edges do not count, and a
    sub-nanometre tolerance absorbs float-association noise from
    packing arithmetic. *)

val intersection : t -> t -> t option

val union_bbox : t -> t -> t
