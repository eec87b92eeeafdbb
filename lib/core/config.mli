(** Planner configuration: every knob of the interconnect-planning
    pipeline in one record.

    Geometry is normalized per circuit: the total functional-unit area
    (in flip-flop equivalents) is scaled onto [chip_area_mm2] of
    silicon, which fixes the FF-unit/mm^2 conversion used for tile
    capacities.  The defaults reproduce the paper's setup: target
    period at 20% of the way from [T_min] to [T_init], alpha = 0.2,
    a handful of adaptive iterations. *)

type t = {
  seed : int;
  (* -- partitioning / blocks -- *)
  units_per_block : int;
      (** target block granularity; block count is clamped to
          [\[min_blocks, max_blocks\]] *)
  min_blocks : int;
  max_blocks : int;
  hard_block_every : int;
      (** every n-th block is a hard block (0 = all soft) *)
  block_area_inflation : float;
      (** soft block area = logic area * inflation; the headroom above
          [soft_fill_factor] is the block's flip-flop capacity *)
  (* -- geometry / tiles -- *)
  chip_area_mm2 : float;
  grid : int;  (** tile-grid cells per side *)
  channel_density : float;
      (** fraction of full logic density usable in channel/dead tiles *)
  hard_sites_per_cell : float;
  soft_fill_factor : float;
  edge_capacity : float;  (** routing tracks per cell boundary *)
  whitespace : float;  (** chip outline margin around the packing *)
  (* -- engines -- *)
  delay_model : Lacr_repeater.Delay_model.t;
  route_passes : int;
      (** rip-up/re-route passes after the initial routing pass
          (default {!Lacr_routing.Global_router.default_passes}) *)
  (* -- retiming -- *)
  clk_fraction : float;
      (** T_clk = T_min + clk_fraction * (T_init - T_min); paper: 0.2 *)
  alpha : float;  (** LAC weight-update coefficient; paper: ~0.2 *)
  n_max : int;
      (** stop once more than this many rounds in a row have not
          improved *)
  max_wr : int;  (** hard cap on weighted min-area calls *)
  prune_constraints : bool;
  paths_mode : Lacr_retime.Paths.Mode.t;
      (** (W,D) path-matrix backend: [Auto] (default) and [Stream]
          keep only the probe-relevant frontier at every size
          (memory-bounded); [Dense] materializes the full n x n
          matrices, the test oracle (O(n^2) memory, out of reach past
          ~10^4 vertices).  Both backends produce bit-identical
          constraint systems and plans. *)
  (* -- execution -- *)
  domains : int;
      (** worker domains for the parallel kernels (global routing,
          (W,D) matrices, constraint generation): 1 = sequential
          (default), 0 = auto
          ([Domain.recommended_domain_count]).  The [LACR_DOMAINS]
          environment variable overrides this knob at pool creation
          (see [Lacr_util.Pool.resolve_size]).  Results are
          bit-identical for every value. *)
  sanitize : bool;
      (** run the {!Lacr_util.Sanitize} invariant checks (flow
          conservation and admissibility after every min-cost-flow
          solve, retiming legality/cycle sums and tile accounting
          after every LAC round, CSR well-formedness, span balance)
          for the duration of a planner call.  Equivalent to
          [LACR_SANITIZE=1]; default [false].  Slower, but the
          planned result is bit-identical. *)
}

val default : t

val block_count : t -> n_units:int -> int
(** Derived partition arity for a circuit size. *)

val t_clk : t -> t_init:float -> t_min:float -> float
(** The target clock period of the paper's set-up,
    [t_min + clk_fraction * (t_init - t_min)]: the one place this rule
    lives, shared by {!Planner.retiming_setup} and every client that
    runs the set-up stages itself. *)
