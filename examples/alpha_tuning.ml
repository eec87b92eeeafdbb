(* Alpha tuning: the paper (4.2) reports that alpha around 0.2 in the
   tile-weight update

       new_weight = old_weight * ((1 - alpha) + alpha * AC(t)/C(t))

   "typically produces the best results".  This example sweeps alpha
   on one circuit and prints violations, flip-flop count and the
   number of weighted min-area retimings until convergence.

   Run with:  dune exec examples/alpha_tuning.exe *)

module Build = Lacr_core.Build
module Lac = Lacr_core.Lac
module Planner = Lacr_core.Planner
module Constraints = Lacr_retime.Constraints

let () =
  let netlist = Option.get (Lacr_circuits.Suite.by_name "s526") in
  match Build.build netlist with
  | Error msg -> Printf.eprintf "build failed: %s\n" msg
  | Ok inst ->
    (* Constraint generation happens once; the sweep reuses it, the
       same reuse the LAC loop itself depends on. *)
    let _, _, t_clk, constraints = Planner.retiming_setup inst in
    Printf.printf "%s: T_clk = %.2f ns, %d constraints\n\n" inst.Build.circuit t_clk
      constraints.Constraints.system.Constraints.m;
    Printf.printf "%8s | %6s %6s %6s | convergence (N_FOA per iteration)\n" "alpha" "N_FOA"
      "N_F" "N_wr";
    print_endline (String.make 78 '-');
    let sweep alpha =
      match Lac.retime ~alpha ~max_wr:14 inst constraints with
      | Error msg -> Printf.printf "%8.2f | failed: %s\n" alpha msg
      | Ok { Lac.lac = o; _ } ->
        let history =
          o.Lac.trace |> List.map (fun (foa, _) -> string_of_int foa) |> String.concat " "
        in
        Printf.printf "%8.2f | %6d %6d %6d | %s\n" alpha o.Lac.n_foa o.Lac.n_f o.Lac.n_wr history
    in
    List.iter sweep [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.5; 0.8; 1.0 ];
    print_newline ();
    print_endline
      "alpha = 0 never re-weights (a single plain min-area retiming);\n\
       large alpha over-reacts to one iteration's consumption and can\n\
       oscillate.  The paper's recommendation of ~0.2 shows up as the\n\
       band with the fewest violations at moderate N_wr."
