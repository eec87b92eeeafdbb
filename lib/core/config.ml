type t = {
  seed : int;
  units_per_block : int;
  min_blocks : int;
  max_blocks : int;
  hard_block_every : int;
  block_area_inflation : float;
  chip_area_mm2 : float;
  grid : int;
  channel_density : float;
  hard_sites_per_cell : float;
  soft_fill_factor : float;
  edge_capacity : float;
  whitespace : float;
  delay_model : Lacr_repeater.Delay_model.t;
  route_passes : int;
  clk_fraction : float;
  alpha : float;
  n_max : int;
  max_wr : int;
  prune_constraints : bool;
  paths_mode : Lacr_retime.Paths.Mode.t;
  domains : int;
  sanitize : bool;
}

let default =
  {
    seed = 2003;
    units_per_block = 22;
    min_blocks = 5;
    max_blocks = 20;
    hard_block_every = 0;
    block_area_inflation = 1.27;
    chip_area_mm2 = 225.0;
    grid = 12;
    channel_density = 0.8;
    hard_sites_per_cell = 1.0;
    soft_fill_factor = 0.92;
    edge_capacity = 24.0;
    whitespace = 0.25;
    delay_model = Lacr_repeater.Delay_model.default;
    route_passes = Lacr_routing.Global_router.default_passes;
    clk_fraction = 0.2;
    alpha = 0.2;
    n_max = 8;
    max_wr = 30;
    prune_constraints = true;
    paths_mode = Lacr_retime.Paths.Mode.Auto;
    domains = 1;
    sanitize = false;
  }

let block_count t ~n_units =
  let raw = n_units / max 1 t.units_per_block in
  max t.min_blocks (min t.max_blocks raw)

let t_clk t ~t_init ~t_min = t_min +. (t.clk_fraction *. (t_init -. t_min))
