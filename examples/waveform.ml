(* Waveform-level debugging workflow: retime a circuit, materialize
   the result as a netlist, simulate original and retimed side by
   side, and dump both traces as VCD files for a waveform viewer.

   Run with:  dune exec examples/waveform.exe
   Then open /tmp/s27_original.vcd and /tmp/s27_retimed.vcd in GTKWave
   (or any VCD viewer) to see the identical output streams.  The
   retimed netlist is also exported as structural Verilog. *)

module Netlist = Lacr_netlist.Netlist
module Seqview = Lacr_netlist.Seqview
module Sim = Lacr_netlist.Sim
module Vcd = Lacr_netlist.Vcd
module Rebuild = Lacr_netlist.Rebuild
module Verilog = Lacr_netlist.Verilog
module Graph = Lacr_retime.Graph
module Rng = Lacr_util.Rng

let () =
  let netlist = Lacr_circuits.Suite.s27 () in
  let view = Result.get_ok (Seqview.of_netlist netlist) in
  (* Min-area retime at a 10% relaxed period. *)
  let g = Graph.of_seqview view in
  let extra = Graph.io_pin_constraints view ~host:(Graph.host g) in
  let wd = Lacr_retime.Paths.compute ~extra g in
  let mp = Lacr_retime.Feasibility.min_period ~extra g wd in
  let period = mp.Lacr_retime.Feasibility.period *. 1.1 in
  let cs = Lacr_retime.Constraints.generate ~prune:true ~extra g wd ~period in
  match Lacr_retime.Min_area.solve g cs with
  | Error msg -> prerr_endline msg
  | Ok sol ->
    let labels = Array.sub sol.Lacr_retime.Min_area.labels 0 (Seqview.num_units view) in
    (match Rebuild.of_labels netlist view labels with
    | Error msg -> prerr_endline msg
    | Ok retimed ->
      Printf.printf "retimed %s at %.2f ns: %d -> %d flip-flops\n"
        (Netlist.name netlist) period (Netlist.num_dffs netlist)
        (Netlist.num_dffs retimed);
      (* Common random stimulus. *)
      let rng = Rng.create 2026 in
      let width = Netlist.num_inputs netlist in
      let trace = List.init 32 (fun _ -> Array.init width (fun _ -> Rng.bool rng)) in
      let dump name n =
        let v = Result.get_ok (Seqview.of_netlist n) in
        let sim = Sim.create v in
        let vcd = Vcd.create v in
        let outs = Vcd.run_and_record vcd sim trace in
        let path = Printf.sprintf "/tmp/%s.vcd" name in
        Vcd.write_file path vcd;
        Printf.printf "wrote %s (%d cycles)\n" path (List.length outs);
        outs
      in
      let o1 = dump "s27_original" netlist in
      let o2 = dump "s27_retimed" retimed in
      Printf.printf "output streams identical: %b\n" (o1 = o2);
      Verilog.write_file "/tmp/s27_retimed.v" retimed;
      print_endline "wrote /tmp/s27_retimed.v (structural Verilog)")
