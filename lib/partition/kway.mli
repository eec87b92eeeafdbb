(** Recursive-bisection k-way partitioning on top of {!Fm}.

    Used by the planner to group the netlist's functional units into
    circuit blocks before floorplanning (paper §2: "a partition of the
    RT level functional units into circuit blocks"). *)

val partition : Lacr_util.Rng.t -> Fm.problem -> k:int -> int array
(** Block label in [\[0, k)] per cell; block areas are balanced within
    the FM tolerance at each bisection level.  [k = 1] returns all
    zeros.  @raise Invalid_argument on [k <= 0] or an invalid
    problem. *)

val block_areas : Fm.problem -> int array -> k:int -> float array

val cut_nets : Fm.problem -> int array -> int
(** Nets spanning more than one block — the inter-block nets the
    global router must route. *)

val of_seqview : Lacr_netlist.Seqview.t -> Fm.problem
(** Cells are units (ports get a small positive area so FM accepts
    them); one two-pin net per edge. *)
