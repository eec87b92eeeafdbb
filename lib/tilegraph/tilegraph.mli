(** The tile graph of the paper's §4 (Figure 2).

    The chip is divided into a regular grid of cells.  Cells are
    grouped into {e tiles}, the unit at which repeater/flip-flop area
    capacity is tracked:
    - every cell over channel or dead space is its own high-capacity
      tile;
    - every cell over a hard block is its own tile whose capacity is
      the (small) pre-allocated repeater/flip-flop site area;
    - all cells of one soft block merge into a single tile whose
      capacity is the block's area headroom left by its functional
      units (the paper's merged soft-block tile).

    The cell grid doubles as the global-routing graph; tile capacities
    feed repeater planning and LAC-retiming. *)

type kind =
  | Channel
  | Hard_cell of int  (** placement index of the hard block *)
  | Soft_merged of int  (** placement index of the soft block *)

type tile = {
  kind : kind;
  region : Lacr_geometry.Rect.t;
      (** one grid cell, or the whole block for a merged soft tile *)
  capacity : float;  (** repeater/flip-flop area budget, FF units *)
}

type config = {
  grid : int;  (** cells per chip side, >= 2 *)
  ff_units_per_mm2 : float;
      (** full logic density: flip-flop-equivalent area units per mm^2
          of silicon; converts geometric headroom into capacity *)
  channel_density : float;
      (** fraction of full density usable in channel/dead tiles *)
  hard_sites_per_cell : float;  (** FF units of pre-placed sites per cell *)
  soft_fill_factor : float;
      (** fraction of a soft block's area usable by its own logic plus
          inserted cells; headroom = area * factor - logic area *)
  edge_capacity : float;  (** routing tracks per cell boundary *)
}

val default_config : config

type t

val build :
  ?config:config ->
  ?resident_ff_area:float array ->
  Lacr_floorplan.Floorplan.t ->
  logic_area:float array ->
  t
(** [logic_area.(i)] is the silicon area (mm^2) consumed by the
    functional units placed in block [i] (used for soft-tile headroom;
    ignored for hard blocks).  [resident_ff_area.(i)] (mm^2, default
    all zero) is the area of the flip-flops originally resident in
    block [i]; for hard blocks it is spread over the block's cells on
    top of the pre-placed sites, so a macro's own registers do not
    count as violations.  @raise Invalid_argument on arity
    mismatch. *)

val config : t -> config
val chip : t -> Lacr_geometry.Rect.t
val num_cells : t -> int
val num_tiles : t -> int
val tiles : t -> tile array

val grid_dims : t -> int * int
(** (columns, rows); cell index is [row * columns + col]. *)

val cell_of_point : t -> Lacr_geometry.Point.t -> int
(** Clamps points outside the chip to the border cells. *)

val cell_center : t -> int -> Lacr_geometry.Point.t

val cell_pitch : t -> float * float
(** Cell width and height in mm. *)

val tile_of_cell : t -> int -> int

val cell_neighbors : t -> int -> int list
(** 4-neighbourhood in the grid. *)

val total_capacity : t -> float

val render : t -> string
(** ASCII map, one character per cell: ['.'] channel/dead, ['#'] hard
    block, letters for soft blocks — the Figure-2 view. *)
