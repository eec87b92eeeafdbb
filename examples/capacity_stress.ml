(* Capacity stress: a floorplan with hard IP blocks and deliberately
   tight soft-block headroom.  Plain min-area retiming piles relocated
   flip-flops into tiles that cannot hold them; LAC-retiming trades a
   few extra registers for a floorplan that still closes.

   Run with:  dune exec examples/capacity_stress.exe *)

module Planner = Lacr_core.Planner
module Build = Lacr_core.Build
module Lac = Lacr_core.Lac
module Config = Lacr_core.Config
module Area = Lacr_core.Area
module Tilegraph = Lacr_tilegraph.Tilegraph

let () =
  let netlist = Option.get (Lacr_circuits.Suite.by_name "s526") in
  (* Every third block is a hard macro (sites only); block headroom is
     squeezed to 1.2x and channels are thin. *)
  let config =
    {
      Config.default with
      Config.hard_block_every = 3;
      block_area_inflation = 1.2;
      channel_density = 0.5;
      hard_sites_per_cell = 0.5;
    }
  in
  match Planner.plan_checked ~config ~second_iteration:true netlist with
  | Error e -> Printf.eprintf "planning failed: %s\n" (Planner.error_message e)
  | Ok run ->
    let inst = run.Planner.instance in
    let hard_blocks =
      Array.fold_left
        (fun acc b -> if Lacr_floorplan.Block.is_soft b then acc else acc + 1)
        0 inst.Build.blocks
    in
    Printf.printf "floorplan: %d blocks (%d hard), %.0f%% utilization\n\n"
      (Array.length inst.Build.blocks) hard_blocks
      (100.0 *. Lacr_floorplan.Floorplan.utilization inst.Build.floorplan);
    let show name (o : Lac.outcome) =
      let report = Area.report inst ~labels:o.Lac.labels in
      let kinds =
        List.map
          (fun (tile, _) ->
            match (Tilegraph.tiles inst.Build.tilegraph).(tile).Tilegraph.kind with
            | Tilegraph.Channel -> "channel"
            | Tilegraph.Hard_cell _ -> "hard"
            | Tilegraph.Soft_merged _ -> "soft")
          report.Area.violated_tiles
      in
      let count k = List.length (List.filter (( = ) k) kinds) in
      Printf.printf "%-9s N_FOA=%-3d N_F=%-3d violated tiles: %d soft, %d hard, %d channel\n" name
        o.Lac.n_foa o.Lac.n_f (count "soft") (count "hard") (count "channel")
    in
    show "min-area" run.Planner.minarea;
    show "LAC" run.Planner.lac;
    (match run.Planner.second with
    | Some (Ok { Planner.lac2 = Ok o2; _ }) ->
      Printf.printf
        "\nafter expanding the congested soft blocks (2nd planning iteration): N_FOA = %d\n"
        o2.Lac.n_foa
    | Some (Ok { Planner.lac2 = Error msg; _ }) ->
      Printf.printf "\n2nd planning iteration became infeasible (%s) —\n" msg;
      print_endline "the paper observed the same failure mode on s1269."
    | Some (Error msg) ->
      Printf.printf "\n2nd planning iteration build failed (%s).\n" msg
    | None -> print_endline "\nno second iteration was needed.");
    print_newline ();
    print_string (Lacr_core.Report.render_tile_figure inst)
