module Rect = Lacr_geometry.Rect
module Point = Lacr_geometry.Point
module Floorplan = Lacr_floorplan.Floorplan
module Block = Lacr_floorplan.Block

type kind =
  | Channel
  | Hard_cell of int
  | Soft_merged of int

type tile = {
  kind : kind;
  region : Rect.t;
  capacity : float;
}

type config = {
  grid : int;
  ff_units_per_mm2 : float;
  channel_density : float;
  hard_sites_per_cell : float;
  soft_fill_factor : float;
  edge_capacity : float;
}

let default_config =
  {
    grid = 12;
    ff_units_per_mm2 = 5.0;
    channel_density = 0.35;
    hard_sites_per_cell = 0.5;
    soft_fill_factor = 0.92;
    edge_capacity = 16.0;
  }

type t = {
  config : config;
  chip : Rect.t;
  nx : int;
  ny : int;
  cell_w : float;
  cell_h : float;
  cell_tile : int array;
  tiles : tile array;
}

let build ?(config = default_config) ?resident_ff_area (fp : Floorplan.t) ~logic_area =
  let n_blocks = Array.length fp.Floorplan.placements in
  if Array.length logic_area <> n_blocks then invalid_arg "Tilegraph.build: logic_area arity";
  let resident_ff_area =
    match resident_ff_area with
    | Some arr ->
      if Array.length arr <> n_blocks then invalid_arg "Tilegraph.build: resident_ff_area arity";
      arr
    | None -> Array.make n_blocks 0.0
  in
  if config.grid < 2 then invalid_arg "Tilegraph.build: grid too small";
  let chip = fp.Floorplan.chip in
  let nx = config.grid and ny = config.grid in
  let cell_w = chip.Rect.w /. float_of_int nx and cell_h = chip.Rect.h /. float_of_int ny in
  let cell_area = cell_w *. cell_h in
  let n_cells = nx * ny in
  let cell_tile = Array.make n_cells (-1) in
  let tiles = ref [] in
  let n_tiles = ref 0 in
  let add_tile tile =
    tiles := tile :: !tiles;
    incr n_tiles;
    !n_tiles - 1
  in
  (* One merged tile per soft block, created on demand. *)
  let soft_tile = Array.make n_blocks (-1) in
  let soft_tile_for b =
    if soft_tile.(b) >= 0 then soft_tile.(b)
    else begin
      let placement = fp.Floorplan.placements.(b) in
      let block = placement.Floorplan.block in
      let headroom_mm2 =
        (Block.area block *. config.soft_fill_factor) -. logic_area.(b)
      in
      let headroom = headroom_mm2 *. config.ff_units_per_mm2 in
      let id =
        add_tile
          {
            kind = Soft_merged b;
            region = placement.Floorplan.rect;
            capacity = max 0.0 headroom;
          }
      in
      soft_tile.(b) <- id;
      id
    end
  in
  (* Pre-scan: how many cells each hard block owns, so its resident
     flip-flop area can be spread across them (a hard macro carries
     its own registers; only the extra sites are insertion budget). *)
  let hard_cells = Array.make n_blocks 0 in
  for row = 0 to ny - 1 do
    for col = 0 to nx - 1 do
      let center =
        Point.make
          (chip.Rect.x +. ((float_of_int col +. 0.5) *. cell_w))
          (chip.Rect.y +. ((float_of_int row +. 0.5) *. cell_h))
      in
      match Floorplan.block_at fp center with
      | Some b when not (Block.is_soft fp.Floorplan.placements.(b).Floorplan.block) ->
        hard_cells.(b) <- hard_cells.(b) + 1
      | Some _ | None -> ()
    done
  done;
  for row = 0 to ny - 1 do
    for col = 0 to nx - 1 do
      let cell = (row * nx) + col in
      let center =
        Point.make
          (chip.Rect.x +. ((float_of_int col +. 0.5) *. cell_w))
          (chip.Rect.y +. ((float_of_int row +. 0.5) *. cell_h))
      in
      let region =
        Rect.make
          ~x:(chip.Rect.x +. (float_of_int col *. cell_w))
          ~y:(chip.Rect.y +. (float_of_int row *. cell_h))
          ~w:cell_w ~h:cell_h
      in
      match Floorplan.block_at fp center with
      | None ->
        cell_tile.(cell) <-
          add_tile
            {
              kind = Channel;
              region;
              capacity = config.channel_density *. config.ff_units_per_mm2 *. cell_area;
            }
      | Some b ->
        let block = fp.Floorplan.placements.(b).Floorplan.block in
        if Block.is_soft block then cell_tile.(cell) <- soft_tile_for b
        else begin
          let resident_share =
            resident_ff_area.(b) *. config.ff_units_per_mm2
            /. float_of_int (max 1 hard_cells.(b))
          in
          cell_tile.(cell) <-
            add_tile
              {
                kind = Hard_cell b;
                region;
                capacity = config.hard_sites_per_cell +. resident_share;
              }
        end
    done
  done;
  {
    config;
    chip;
    nx;
    ny;
    cell_w;
    cell_h;
    cell_tile;
    tiles = Array.of_list (List.rev !tiles);
  }

let config t = t.config
let chip t = t.chip
let num_cells t = t.nx * t.ny
let num_tiles t = Array.length t.tiles
let tiles t = t.tiles
let grid_dims t = (t.nx, t.ny)

let clamp v lo hi = if v < lo then lo else if v > hi then hi else v

let cell_of_point t (p : Point.t) =
  let col = clamp (int_of_float ((p.Point.x -. t.chip.Rect.x) /. t.cell_w)) 0 (t.nx - 1) in
  let row = clamp (int_of_float ((p.Point.y -. t.chip.Rect.y) /. t.cell_h)) 0 (t.ny - 1) in
  (row * t.nx) + col

let cell_center t cell =
  let row = cell / t.nx and col = cell mod t.nx in
  Point.make
    (t.chip.Rect.x +. ((float_of_int col +. 0.5) *. t.cell_w))
    (t.chip.Rect.y +. ((float_of_int row +. 0.5) *. t.cell_h))

let cell_pitch t = (t.cell_w, t.cell_h)

let tile_of_cell t cell = t.cell_tile.(cell)

let cell_neighbors t cell =
  let row = cell / t.nx and col = cell mod t.nx in
  let candidates = [ (row - 1, col); (row + 1, col); (row, col - 1); (row, col + 1) ] in
  List.filter_map
    (fun (r, c) -> if r >= 0 && r < t.ny && c >= 0 && c < t.nx then Some ((r * t.nx) + c) else None)
    candidates

let total_capacity t = Array.fold_left (fun acc tile -> acc +. tile.capacity) 0.0 t.tiles

let render t =
  let letter b = Char.chr (Char.code 'a' + (b mod 26)) in
  let buf = Buffer.create ((t.nx + 1) * t.ny) in
  for row = t.ny - 1 downto 0 do
    for col = 0 to t.nx - 1 do
      let tile = t.tiles.(t.cell_tile.((row * t.nx) + col)) in
      let ch =
        match tile.kind with
        | Channel -> '.'
        | Hard_cell _ -> '#'
        | Soft_merged b -> letter b
      in
      Buffer.add_char buf ch
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
