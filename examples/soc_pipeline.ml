(* A hand-built "SoC datapath" scenario: two register banks at the
   ends of a wide combinational cloud.  After floorplanning, the
   producer and consumer land in different blocks, so the wires
   between them are long enough that the target clock period forces
   registers INTO the interconnect — the pipelined-signal-transmission
   story of the paper's introduction.

   Run with:  dune exec examples/soc_pipeline.exe *)

module Netlist = Lacr_netlist.Netlist
module Gate = Lacr_netlist.Gate
module Planner = Lacr_core.Planner
module Build = Lacr_core.Build
module Lac = Lacr_core.Lac
module Config = Lacr_core.Config

(* [width]-bit producer stage -> deep logic -> consumer stage, with a
   feedback loop so retiming has cycles to work with. *)
let build_datapath ~width ~depth =
  let b = Netlist.Builder.create ~name:"soc_datapath" in
  for i = 0 to width - 1 do
    Netlist.Builder.add_input b (Printf.sprintf "in%d" i)
  done;
  (* Producer registers capture the inputs. *)
  for i = 0 to width - 1 do
    Netlist.Builder.add_gate b (Printf.sprintf "cap%d" i) Gate.Buf [ Printf.sprintf "in%d" i ];
    Netlist.Builder.add_dff b (Printf.sprintf "preg%d" i) ~data:(Printf.sprintf "cap%d" i)
  done;
  (* Deep combinational cloud: each level mixes neighbouring bits. *)
  let level_signal level i =
    if level = 0 then Printf.sprintf "preg%d" i else Printf.sprintf "l%d_%d" level i
  in
  for level = 1 to depth do
    for i = 0 to width - 1 do
      let a = level_signal (level - 1) i in
      let c = level_signal (level - 1) ((i + 1) mod width) in
      let kind = if (level + i) mod 3 = 0 then Gate.Xor else Gate.Nand in
      Netlist.Builder.add_gate b (Printf.sprintf "l%d_%d" level i) kind [ a; c ]
    done
  done;
  (* Consumer registers and outputs, plus feedback into the cloud. *)
  for i = 0 to width - 1 do
    Netlist.Builder.add_dff b (Printf.sprintf "creg%d" i) ~data:(level_signal depth i);
    Netlist.Builder.add_gate b (Printf.sprintf "out%d" i) Gate.Buf [ Printf.sprintf "creg%d" i ];
    Netlist.Builder.mark_output b (Printf.sprintf "out%d" i)
  done;
  (* Feedback: consumer state steers the first level. *)
  Netlist.Builder.add_gate b "steer" Gate.Nor [ "creg0"; "creg1" ];
  Netlist.Builder.add_dff b "steer_q" ~data:"steer";
  Netlist.Builder.add_gate b "l1_fb" Gate.And [ "steer_q"; "preg0" ];
  Netlist.Builder.mark_output b "l1_fb";
  match Netlist.Builder.finish b with
  | Ok n -> n
  | Error msg -> failwith msg

let () =
  let netlist = build_datapath ~width:24 ~depth:14 in
  Printf.printf "datapath: %d gates, %d flip-flops\n\n" (Netlist.num_gates netlist)
    (Netlist.num_dffs netlist);
  (* A slightly finer block granularity separates producer from
     consumer. *)
  let config = { Config.default with Config.units_per_block = 60; min_blocks = 6 } in
  match Planner.plan_checked ~config ~second_iteration:false netlist with
  | Error e -> Printf.eprintf "planning failed: %s\n" (Planner.error_message e)
  | Ok run ->
    Printf.printf "T_init = %.2f ns, T_min = %.2f ns, planning at T_clk = %.2f ns\n\n"
      run.Planner.t_init run.Planner.t_min run.Planner.t_clk;
    let lac = run.Planner.lac in
    Printf.printf "LAC-retiming: %d flip-flops total, %d now live inside interconnect (%.0f%%)\n"
      lac.Lac.n_f lac.Lac.n_fn
      (100.0 *. float_of_int lac.Lac.n_fn /. float_of_int (max 1 lac.Lac.n_f));
    Printf.printf "area-constraint violations: min-area %d vs LAC %d\n\n"
      run.Planner.minarea.Lac.n_foa lac.Lac.n_foa;
    if lac.Lac.n_fn > 0 then
      print_endline
        "registers crossed into the wires: the planner pipelined the\n\
         producer->consumer interconnect instead of reporting a timing\n\
         failure back to the RT level — the iteration the paper avoids."
    else
      print_endline
        "no wire registers were needed at this period; try a deeper cloud\n\
         (raise ~depth) to force interconnect pipelining."
