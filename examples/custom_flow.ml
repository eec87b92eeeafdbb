(* Driving the substrates individually — for users who want to swap a
   stage (their own floorplanner, their own router) rather than call
   [Planner.plan_checked].

   Run with:  dune exec examples/custom_flow.exe

   The stages below mirror Build.build, but every intermediate result
   is inspected along the way: partition quality, floorplan
   utilization, routing congestion, repeater count, and finally the
   LAC-retiming itself on a hand-assembled problem. *)

module Seqview = Lacr_netlist.Seqview
module Levelize = Lacr_netlist.Levelize
module Kway = Lacr_partition.Kway
module Fm = Lacr_partition.Fm
module Block = Lacr_floorplan.Block
module Annealer = Lacr_floorplan.Annealer
module Floorplan = Lacr_floorplan.Floorplan
module Tilegraph = Lacr_tilegraph.Tilegraph
module Graph = Lacr_retime.Graph
module Paths = Lacr_retime.Paths
module Feasibility = Lacr_retime.Feasibility
module Constraints = Lacr_retime.Constraints
module Rng = Lacr_util.Rng

let () =
  let netlist = Option.get (Lacr_circuits.Suite.by_name "s400") in
  let view = Result.get_ok (Seqview.of_netlist netlist) in
  (* 0. Structural statistics. *)
  (match Levelize.stats view with
  | Ok s -> Format.printf "netlist: %a@." Levelize.pp_stats s
  | Error msg -> print_endline msg);

  (* 1. Partition the units into 8 blocks with FM recursive bisection. *)
  let rng = Rng.create 42 in
  let problem = Kway.of_seqview view in
  let labels = Kway.partition rng problem ~k:8 in
  Printf.printf "partition: %d of %d nets cut\n" (Kway.cut_nets problem labels)
    (Array.length problem.Fm.nets);

  (* 2. Size soft blocks from the logic they hold and floorplan them. *)
  let areas = Kway.block_areas problem labels ~k:8 in
  let blocks = Array.mapi (fun b a -> Block.soft ~name:(Printf.sprintf "b%d" b) (a *. 0.3)) areas in
  let nets =
    Array.to_list view.Seqview.edges
    |> List.filter_map (fun (e : Seqview.edge) ->
           let a = labels.(e.Seqview.src) and b = labels.(e.Seqview.dst) in
           if a = b then None else Some { Annealer.pins = [| a; b |]; weight = 1.0 })
  in
  let annealed = Annealer.floorplan (Rng.create 7) blocks nets in
  let fp = Floorplan.of_packing ~whitespace:0.25 blocks annealed.Annealer.packing in
  Printf.printf "floorplan: chip %.1f x %.1f mm, utilization %.0f%%\n"
    fp.Floorplan.chip.Lacr_geometry.Rect.w fp.Floorplan.chip.Lacr_geometry.Rect.h
    (100.0 *. Floorplan.utilization fp);

  (* 3. Tile the chip and inspect capacities. *)
  let logic_mm2 = Array.map (fun a -> a *. 0.25) areas in
  let tg = Tilegraph.build fp ~logic_area:logic_mm2 in
  Printf.printf "tiles: %d (total capacity %.0f FF units)\n" (Tilegraph.num_tiles tg)
    (Tilegraph.total_capacity tg);

  (* 4. Retiming on the bare netlist graph (no interconnect units in
     this minimal flow): min-period, then a relaxed min-area. *)
  let g = Graph.of_seqview view in
  let extra = Graph.io_pin_constraints view ~host:(Graph.host g) in
  let wd = Paths.compute ~extra g in
  let mp = Feasibility.min_period ~extra g wd in
  Printf.printf "clock: %.2f ns initial, %.2f ns after min-period retiming\n"
    (Graph.clock_period g) mp.Feasibility.period;
  let t_clk = mp.Feasibility.period *. 1.1 in
  let cs = Constraints.generate ~prune:true ~extra g wd ~period:t_clk in
  match Lacr_retime.Min_area.solve g cs with
  | Error msg -> print_endline msg
  | Ok sol ->
    Printf.printf "min-area at %.2f ns: %d per-edge registers (%d shared chains)\n" t_clk
      sol.Lacr_retime.Min_area.ff_count
      (Lacr_retime.Min_area.shared_registers g sol.Lacr_retime.Min_area.labels)
