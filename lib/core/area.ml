module Graph = Lacr_retime.Graph
module Tilegraph = Lacr_tilegraph.Tilegraph
module Occupancy = Lacr_tilegraph.Occupancy

type violation_report = {
  consumption : float array;
  n_foa : int;
  violated_tiles : (int * float) list;
}

let consumption (inst : Build.instance) ~labels =
  let n_tiles = Tilegraph.num_tiles inst.Build.tilegraph in
  let ff_area = inst.Build.config.Config.delay_model.Lacr_repeater.Delay_model.ff_area in
  let acc = Array.make n_tiles 0.0 in
  let tally (e : Graph.edge) =
    let tile = inst.Build.vertex_tile.(e.Graph.src) in
    if tile >= 0 then begin
      let w = Graph.retimed_weight inst.Build.graph labels e in
      acc.(tile) <- acc.(tile) +. (float_of_int w *. ff_area)
    end
  in
  Array.iter tally (Graph.edges inst.Build.graph);
  acc

let report (inst : Build.instance) ~labels =
  let acc = consumption inst ~labels in
  let ff_area = inst.Build.config.Config.delay_model.Lacr_repeater.Delay_model.ff_area in
  let violated = ref [] in
  let n_foa = ref 0 in
  Array.iteri
    (fun tile used ->
      let capacity = Occupancy.remaining inst.Build.occupancy tile in
      let excess = used -. max 0.0 capacity in
      if excess > 1e-9 then begin
        violated := (tile, excess) :: !violated;
        n_foa := !n_foa + int_of_float (ceil ((excess /. ff_area) -. 1e-9))
      end)
    acc;
  let violated_tiles = List.sort (fun (_, a) (_, b) -> Float.compare b a) !violated in
  { consumption = acc; n_foa = !n_foa; violated_tiles }

let ff_count (inst : Build.instance) ~labels =
  Array.fold_left
    (fun total e -> total + Graph.retimed_weight inst.Build.graph labels e)
    0
    (Graph.edges inst.Build.graph)

let ff_in_interconnect (inst : Build.instance) ~labels =
  Array.fold_left
    (fun total (e : Graph.edge) ->
      if Build.interconnect_vertex inst e.Graph.src then
        total + Graph.retimed_weight inst.Build.graph labels e
      else total)
    0
    (Graph.edges inst.Build.graph)
