(* Quickstart: plan the real ISCAS89 s27 circuit end-to-end.

   Run with:  dune exec examples/quickstart.exe

   This walks the whole public API surface once: load a netlist, run
   the planner (partition, floorplan, tile graph, global routing,
   repeater insertion, min-period retiming, min-area retiming and
   LAC-retiming), then inspect the results. *)

module Planner = Lacr_core.Planner
module Report = Lacr_core.Report
module Build = Lacr_core.Build
module Lac = Lacr_core.Lac

let () =
  (* 1. A netlist.  [Suite.s27] ships with the library; your own
     circuits load through [Lacr_netlist.Bench_io.parse_file]. *)
  let netlist = Lacr_circuits.Suite.s27 () in
  Printf.printf "circuit %s: %d gates, %d flip-flops, %d inputs, %d outputs\n\n"
    (Lacr_netlist.Netlist.name netlist)
    (Lacr_netlist.Netlist.num_gates netlist)
    (Lacr_netlist.Netlist.num_dffs netlist)
    (Lacr_netlist.Netlist.num_inputs netlist)
    (Lacr_netlist.Netlist.num_outputs netlist);

  (* 2. Plan.  [Config.default] reproduces the paper's setup; every
     knob (target-period fraction, alpha, tile grid, delay model) can
     be overridden. *)
  match Planner.plan_checked ~second_iteration:false netlist with
  | Error e -> Printf.eprintf "planning failed: %s\n" (Planner.error_message e)
  | Ok run ->
    (* 3. Timing results of the planning run. *)
    Printf.printf "T_init (after floorplan+routing+repeaters) = %.2f ns\n" run.Planner.t_init;
    Printf.printf "T_min  (best achievable by retiming)       = %.2f ns\n" run.Planner.t_min;
    Printf.printf "T_clk  (target, T_min + 20%% of the gap)    = %.2f ns\n\n" run.Planner.t_clk;

    (* 4. The two retimings: plain min-area vs LAC. *)
    let describe name (o : Lac.outcome) =
      Printf.printf "%-9s flip-flops=%d, in-wires=%d, area violations=%d (%.0f ms)\n" name
        o.Lac.n_f o.Lac.n_fn o.Lac.n_foa (1000.0 *. o.Lac.exec_seconds)
    in
    describe "min-area" run.Planner.minarea;
    describe "LAC" run.Planner.lac;

    (* 5. Physical-planning detail lives on the instance. *)
    let inst = run.Planner.instance in
    Printf.printf "\nphysical view: %d blocks, %d repeaters, %.1f mm of global wire\n"
      (Array.length inst.Build.blocks) inst.Build.n_repeaters
      inst.Build.routing.Build.total_wirelength;

    (* 6. And the paper-style Table-1 row. *)
    print_newline ();
    print_string (Report.render_table1 [ Report.row_of_run ~name:"s27" run ])
