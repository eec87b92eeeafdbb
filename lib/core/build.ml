module Seqview = Lacr_netlist.Seqview
module Kway = Lacr_partition.Kway
module Block = Lacr_floorplan.Block
module Annealer = Lacr_floorplan.Annealer
module Floorplan = Lacr_floorplan.Floorplan
module Tilegraph = Lacr_tilegraph.Tilegraph
module Occupancy = Lacr_tilegraph.Occupancy
module Global_router = Lacr_routing.Global_router
module Insertion = Lacr_repeater.Insertion
module Delay_model = Lacr_repeater.Delay_model
module Graph = Lacr_retime.Graph
module Point = Lacr_geometry.Point
module Rect = Lacr_geometry.Rect
module Rng = Lacr_util.Rng
module Obs = Lacr_obs.Trace

type routing = {
  nets : Global_router.net array;
  usage : Lacr_routing.Maze.usage;
  total_wirelength : float;
  overflow : float;
  max_utilization : float;
  pass_overflow : float array;
}

type instance = {
  circuit : string;
  config : Config.t;
  view : Seqview.t;
  block_of_unit : int array;
  blocks : Block.t array;
  sequence : Lacr_floorplan.Sequence_pair.t;
  dims : (float * float) array;
  floorplan : Floorplan.t;
  tilegraph : Tilegraph.t;
  occupancy : Occupancy.t;
  routing : routing;
  graph : Graph.t;
  pin_constraints : Lacr_mcmf.Difference.constr list;
  vertex_tile : int array;
  n_units : int;
  n_interconnect_units : int;
  n_repeaters : int;
  mm2_per_unit : float;
}

let unit_area (u : Seqview.unit_info) =
  if u.Seqview.area > 0.0 then u.Seqview.area else 0.5

(* Deterministic regular-grid placement of a block's units inside its
   rectangle (planning-level positions; detailed placement happens
   downstream of this tool). *)
let place_units view block_of_unit (fp : Floorplan.t) =
  let n = Seqview.num_units view in
  let members = Array.make (Array.length fp.Floorplan.placements) [] in
  for u = n - 1 downto 0 do
    let b = block_of_unit.(u) in
    members.(b) <- u :: members.(b)
  done;
  let positions = Array.make n Point.origin in
  Array.iteri
    (fun b units ->
      let rect = fp.Floorplan.placements.(b).Floorplan.rect in
      let m = List.length units in
      if m > 0 then begin
        let g = int_of_float (ceil (sqrt (float_of_int m))) in
        List.iteri
          (fun i u ->
            let row = i / g and col = i mod g in
            let fx = (float_of_int col +. 0.5) /. float_of_int g in
            let fy = (float_of_int row +. 0.5) /. float_of_int g in
            positions.(u) <-
              Point.make
                (rect.Rect.x +. (fx *. rect.Rect.w))
                (rect.Rect.y +. (fy *. rect.Rect.h)))
          units
      end)
    members;
  positions

(* Everything after the sequential view: shared by a first build and
   by the second iteration's expansion, which reuses the first
   instance's view. *)
let assemble ~config ~soft_growth ~layout ~pool ~trace view =
  Obs.with_span trace ~cat:"core"
    ~attrs:[ ("circuit", Obs.Str view.Seqview.circuit) ]
    "build"
  @@ fun () ->
  let rng = Rng.create config.Config.seed in
  let n_units = Seqview.num_units view in
  (* --- partition --- *)
  let problem = Kway.of_seqview view in
  let k = Config.block_count config ~n_units in
  let block_of_unit =
    Obs.with_span trace ~cat:"core"
      ~attrs:[ ("units", Obs.Int n_units); ("blocks", Obs.Int k) ]
      "build.partition"
      (fun () -> Kway.partition rng problem ~k)
  in
  let logic_area = Array.make k 0.0 in
  Array.iteri
    (fun u b -> logic_area.(b) <- logic_area.(b) +. unit_area view.Seqview.units.(u))
    block_of_unit;
  (* The netlist's original flip-flops live on edges; blocks are
     sized to hold them (charged to the fan-in unit's block, the
     same convention used for area accounting later), so an
     unmoved register never violates its home tile. *)
  let ff_area_unit = config.Config.delay_model.Lacr_repeater.Delay_model.ff_area in
  let orig_ff_area = Array.make k 0.0 in
  Array.iter
    (fun (e : Seqview.edge) ->
      let b = block_of_unit.(e.Seqview.src) in
      orig_ff_area.(b) <-
        orig_ff_area.(b) +. (float_of_int e.Seqview.weight *. ff_area_unit))
    view.Seqview.edges;
  let sized_area = Array.mapi (fun b a -> a +. orig_ff_area.(b)) logic_area in
  (* --- geometry normalization --- *)
  let total_logic = Array.fold_left ( +. ) 0.0 sized_area in
  let mm2_per_unit =
    config.Config.chip_area_mm2 *. 0.55 /. max 1.0 total_logic
    /. config.Config.block_area_inflation
  in
  (* --- blocks --- *)
  let hard_every = config.Config.hard_block_every in
  let make_block b =
    let name = Printf.sprintf "b%d" b in
    let area_units = sized_area.(b) *. config.Config.block_area_inflation in
    let grown = area_units *. (1.0 +. soft_growth name) in
    let area_mm2 = max 0.05 (grown *. mm2_per_unit) in
    if hard_every > 0 && b mod hard_every = hard_every - 1 then begin
      (* Hard blocks keep a fixed near-square outline. *)
      let aspect = 0.8 +. (0.4 *. Rng.float rng 1.0) in
      let base = area_units *. mm2_per_unit in
      let w = sqrt (base *. aspect) in
      Block.hard ~name ~width:w ~height:(base /. w)
    end
    else Block.soft ~name area_mm2
  in
  let blocks = Array.init k make_block in
  (* --- floorplan --- *)
  let edge_nets =
    Array.to_list view.Seqview.edges
    |> List.filter_map (fun (e : Seqview.edge) ->
           let a = block_of_unit.(e.Seqview.src) and b = block_of_unit.(e.Seqview.dst) in
           if a = b then None else Some { Annealer.pins = [| a; b |]; weight = 1.0 })
  in
  let sequence, dims =
    Obs.with_span trace ~cat:"core"
      ~attrs:[ ("incremental", Obs.Bool (Option.is_some layout)) ]
      "build.floorplan"
    @@ fun () ->
    match layout with
    | None ->
      let anneal = Annealer.floorplan rng blocks edge_nets in
      (anneal.Annealer.sequence, anneal.Annealer.dims)
    | Some (sequence, old_dims) ->
      (* Incremental re-floorplan: keep the relative placement and
         scale each block outline to its (possibly grown) area. *)
      let rescale b (w, h) =
        let target = Block.area blocks.(b) in
        let current = w *. h in
        if current <= 0.0 then (w, h)
        else begin
          let s = sqrt (target /. current) in
          (w *. s, h *. s)
        end
      in
      (sequence, Array.mapi rescale old_dims)
  in
  let packing = Lacr_floorplan.Sequence_pair.pack sequence ~dims in
  let fp = Floorplan.of_packing ~whitespace:config.Config.whitespace blocks packing in
  (* --- tile graph --- *)
  let tile_config =
    {
      Tilegraph.grid = config.Config.grid;
      ff_units_per_mm2 = 1.0 /. mm2_per_unit;
      channel_density = config.Config.channel_density;
      hard_sites_per_cell = config.Config.hard_sites_per_cell;
      soft_fill_factor = config.Config.soft_fill_factor;
      edge_capacity = config.Config.edge_capacity;
    }
  in
  let logic_mm2 = Array.map (fun a -> a *. mm2_per_unit) logic_area in
  let resident_ff_mm2 = Array.map (fun a -> a *. mm2_per_unit) orig_ff_area in
  let tilegraph =
    Obs.with_span trace ~cat:"core" "build.tilegraph" (fun () ->
        Tilegraph.build ~config:tile_config ~resident_ff_area:resident_ff_mm2 fp
          ~logic_area:logic_mm2)
  in
  let occupancy = Occupancy.create tilegraph in
  (* --- unit placement and routing --- *)
  let positions = place_units view block_of_unit fp in
  let unit_cell = Array.map (Tilegraph.cell_of_point tilegraph) positions in
  (* One routing net per driver with at least one sink in another
     block; intra-block connections are local wiring, not global
     interconnect (paper §2: repeater insertion is for
     "global (inter-block) interconnects"). *)
  let fanouts = Array.make n_units [] in
  Array.iteri
    (fun ei (e : Seqview.edge) -> fanouts.(e.Seqview.src) <- (ei, e.Seqview.dst) :: fanouts.(e.Seqview.src))
    view.Seqview.edges;
  let nets = ref [] in
  let net_edge_slots = ref [] in
  Array.iteri
    (fun u outs ->
      let remote =
        List.filter
          (fun (_, v) ->
            block_of_unit.(v) <> block_of_unit.(u) && unit_cell.(v) <> unit_cell.(u))
          outs
      in
      if not (List.is_empty remote) then begin
        let sinks = Array.of_list (List.map (fun (_, v) -> unit_cell.(v)) remote) in
        nets :=
          { Global_router.source_cell = unit_cell.(u); sink_cells = sinks }
          :: !nets;
        net_edge_slots := Array.of_list (List.map fst remote) :: !net_edge_slots
      end)
    fanouts;
  let nets = Array.of_list (List.rev !nets) in
  let net_edge_slots = Array.of_list (List.rev !net_edge_slots) in
  let routing =
    Global_router.route_all ~passes:config.Config.route_passes ~pool ~trace tilegraph nets
  in
  (* --- repeater insertion per sink path --- *)
  let model = config.Config.delay_model in
  let n_edges = Seqview.num_edges view in
  let edge_buffered : Insertion.buffered_path option array = Array.make n_edges None in
  let n_repeaters = ref 0 in
  Obs.with_span trace ~cat:"core" "build.repeaters" (fun () ->
      Array.iteri
        (fun ni routed ->
          let slots = net_edge_slots.(ni) in
          Array.iteri
            (fun si path ->
              let buffered = Insertion.insert ~trace model occupancy ~path in
              n_repeaters := !n_repeaters + List.length buffered.Insertion.repeater_cells;
              edge_buffered.(slots.(si)) <- Some buffered)
            routed.Global_router.sink_paths)
        routing.Global_router.nets;
      if Obs.enabled trace then
        Obs.span_attr trace "repeaters" (Obs.Int !n_repeaters));
  (* --- retiming graph assembly --- *)
  let graph, pin_constraints, vertex_tile, n_interconnect_units =
    Obs.with_span trace ~cat:"core" "build.graph" @@ fun () ->
    let delays = ref [] and tiles_rev = ref [] in
    let n_vertices = ref n_units in
    let add_vertex delay tile =
      delays := delay :: !delays;
      tiles_rev := tile :: !tiles_rev;
      let id = !n_vertices in
      incr n_vertices;
      id
    in
    let edges = ref [] in
    let add_edge src dst weight = edges := { Graph.src; dst; weight } :: !edges in
    Array.iteri
      (fun ei (e : Seqview.edge) ->
        match edge_buffered.(ei) with
        | None | Some { Insertion.segments = []; _ } ->
          add_edge e.Seqview.src e.Seqview.dst e.Seqview.weight
        | Some { Insertion.segments; _ } ->
          let rec chain prev = function
            | [] -> add_edge prev e.Seqview.dst 0
            | (seg : Insertion.segment) :: rest ->
              let v = add_vertex seg.Insertion.delay seg.Insertion.start_tile in
              if prev = e.Seqview.src then add_edge prev v e.Seqview.weight
              else add_edge prev v 0;
              chain v rest
          in
          chain e.Seqview.src segments)
      view.Seqview.edges;
    let host = !n_vertices in
    incr n_vertices;
    delays := 0.0 :: !delays;
    tiles_rev := -1 :: !tiles_rev;
    let unit_delays =
      Array.map (fun (u : Seqview.unit_info) -> u.Seqview.delay) view.Seqview.units
    in
    let extra = Array.of_list (List.rev !delays) in
    let all_delays = Array.append unit_delays extra in
    let unit_tiles = Array.map (fun c -> Tilegraph.tile_of_cell tilegraph c) unit_cell in
    let extra_tiles = Array.of_list (List.rev !tiles_rev) in
    let vertex_tile = Array.append unit_tiles extra_tiles in
    let graph = Graph.create ~delays:all_delays ~edges:!edges ~host in
    let pin_constraints = Graph.io_pin_constraints view ~host in
    (graph, pin_constraints, vertex_tile, Array.length extra - 1)
  in
  {
    circuit = view.Seqview.circuit;
    config;
    view;
    block_of_unit;
    blocks;
    sequence;
    dims;
    floorplan = fp;
    tilegraph;
    occupancy;
    routing =
      {
        nets;
        usage = routing.Global_router.usage;
        total_wirelength = routing.Global_router.total_wirelength;
        overflow = routing.Global_router.overflow;
        max_utilization = routing.Global_router.max_utilization;
        pass_overflow = routing.Global_router.pass_overflow;
      };
    graph;
    pin_constraints;
    vertex_tile;
    n_units;
    n_interconnect_units;
    n_repeaters = !n_repeaters;
    mm2_per_unit;
  }

let build ?(config = Config.default) ?(pool = Lacr_util.Pool.sequential) ?(trace = Obs.disabled)
    netlist =
  match Seqview.of_netlist netlist with
  | Error msg -> Error ("build: " ^ msg)
  | Ok view ->
    if Seqview.has_combinational_cycle view then Error "build: combinational cycle in netlist"
    else Ok (assemble ~config ~soft_growth:(fun _ -> 0.0) ~layout:None ~pool ~trace view)

let expand ?(pool = Lacr_util.Pool.sequential) ?(trace = Obs.disabled) inst ~grow =
  assemble ~config:inst.config ~soft_growth:grow ~layout:(Some (inst.sequence, inst.dims)) ~pool
    ~trace inst.view

let interconnect_vertex inst v =
  v >= inst.n_units && v <> Graph.host inst.graph
