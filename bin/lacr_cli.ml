(* lacr: command-line driver for the LAC-retiming interconnect
   planner.

   Sub-commands:
     plan               — run the full pipeline on one circuit (suite
                          name, hier:UNITS[:SEED] or a .bench/.blif
                          file) and print its Table-1 row plus
                          planning detail;
     table1             — reproduce the paper's Table 1 over the suite;
     figures            — render ASCII versions of the paper's Figures
                          1 and 2;
     alpha              — sweep the LAC weight-update coefficient (E4);
     info               — print the benchmark suite statistics;
     verify-warm        — warm-started vs cold per-round LAC solver;
     verify-route       — router bit-identity across 1/2/4 domains;
     verify-constraints — the streamed frontier's active-source gate;
     retime             — min-area retime and emit the retimed .bench;
     export-dot         — the sequential view as Graphviz DOT;
     stats              — levelization and dead-logic statistics;
     trace-check        — validate --trace/--metrics exports;
     serve-client       — seeded load generator for lacrd. *)

module Planner = Lacr_core.Planner
module Report = Lacr_core.Report
module Config = Lacr_core.Config
module Lac = Lacr_core.Lac
module Build = Lacr_core.Build
module Suite = Lacr_circuits.Suite

(* A .bench/.blif file, else any name [Suite.resolve] knows: the suite
   circuits and the synthetic hier:UNITS[:SEED] scale family. *)
let load_circuit name_or_path =
  if Sys.file_exists name_or_path then begin
    let parse =
      if Filename.extension name_or_path = ".blif" then Lacr_netlist.Blif_io.parse_file
      else Lacr_netlist.Bench_io.parse_file
    in
    match parse name_or_path with
    | Ok n -> Ok n
    | Error msg -> Error (Printf.sprintf "cannot parse %s: %s" name_or_path msg)
  end
  else Suite.resolve name_or_path

(* [let*] for the subcommands: an [Error] goes to stderr and becomes
   exit code 1. *)
let ( let* ) r f =
  match r with
  | Ok x -> f x
  | Error msg ->
    prerr_endline msg;
    1

let config_with ?seed ?alpha ?grid ?domains ?sanitize ?route_passes () =
  let c = Config.default in
  let c = match seed with Some s -> { c with Config.seed = s } | None -> c in
  let c = match alpha with Some a -> { c with Config.alpha = a } | None -> c in
  let c = match grid with Some g -> { c with Config.grid = g } | None -> c in
  let c = match domains with Some d -> { c with Config.domains = d } | None -> c in
  let c = match route_passes with Some p -> { c with Config.route_passes = p } | None -> c in
  match sanitize with Some s -> { c with Config.sanitize = s } | None -> c

(* The load -> build prologue of the subcommands that work on a built
   instance. *)
let with_instance ?seed ?domains circuit f =
  let* netlist = load_circuit circuit in
  let* inst = Build.build ~config:(config_with ?seed ?domains ()) netlist in
  f inst

(* The load -> sequential-view prologue of the subcommands that work
   on the bare netlist. *)
let with_view circuit f =
  let* netlist = load_circuit circuit in
  let* view = Lacr_netlist.Seqview.of_netlist netlist in
  f netlist view

(* --- plan --- *)

let run_plan circuit seed domains sanitize route_passes verbose second trace_file metrics_file =
  let* netlist = load_circuit circuit in
  let config = config_with ?seed ?domains ~sanitize ?route_passes () in
  (* The collector is only live when an output was requested, so a
     plain `lacr plan` keeps the zero-overhead disabled path. *)
  let trace =
    if trace_file <> None || metrics_file <> None then Lacr_obs.Trace.create ()
    else Lacr_obs.Trace.disabled
  in
  (* plan_checked: structured errors instead of escaping exceptions —
     sanitizer violations keep their historical exit code 2, routing
     dead ends become a clean message instead of a crash. *)
  match Planner.plan_checked ~config ~second_iteration:second ~trace netlist with
  | Error (Planner.Sanitizer_violation _ as err) ->
    prerr_endline (Planner.error_message err);
    2
  | Error err ->
    Printf.eprintf "planning failed: %s\n" (Planner.error_message err);
    1
  | Ok run ->
    let name = Lacr_netlist.Netlist.name netlist in
    let row = Report.row_of_run ~name run in
    print_string (Report.render_table1 [ row ]);
    if verbose then begin
      let inst = run.Planner.instance in
      Printf.printf
        "\nT_init = %.2f ns, T_min = %.2f ns, T_clk = %.2f ns\n\
         units = %d, interconnect units = %d, repeaters = %d\n\
         routed wirelength = %.1f mm, routing overflow = %.1f tracks\n"
        run.Planner.t_init run.Planner.t_min run.Planner.t_clk inst.Build.n_units
        inst.Build.n_interconnect_units inst.Build.n_repeaters
        inst.Build.routing.Build.total_wirelength inst.Build.routing.Build.overflow;
      (match run.Planner.second with
      | Some (Ok { Planner.lac2 = Ok o2; _ }) ->
        Printf.printf "second planning iteration: N_FOA %d -> %d\n" run.Planner.lac.Lac.n_foa
          o2.Lac.n_foa
      | Some (Ok { Planner.lac2 = Error msg; _ }) ->
        Printf.printf "second planning iteration infeasible: %s\n" msg
      | Some (Error msg) -> Printf.printf "second planning iteration build failed: %s\n" msg
      | None -> ())
    end;
    if Lacr_obs.Trace.enabled trace then begin
      print_newline ();
      print_string (Report.render_trace_summary trace)
    end;
    (match trace_file with
    | Some path ->
      Lacr_obs.Export.write_chrome_trace trace path;
      Printf.printf "wrote Chrome trace %s (load in chrome://tracing or Perfetto)\n" path
    | None -> ());
    (match metrics_file with
    | Some path ->
      Lacr_obs.Export.write_metrics trace path;
      Printf.printf "wrote metrics %s\n" path
    | None -> ());
    0

(* --- trace-check: validate exporter output --- *)

let run_trace_check trace_file metrics_file expect =
  let trace_ok =
    match trace_file with
    | None -> true
    | Some path ->
      (match Lacr_obs.Export.validate_trace_file ~expect path with
      | Ok n ->
        Printf.printf "%s: valid Chrome trace, %d spans\n" path n;
        true
      | Error msg ->
        Printf.eprintf "%s: INVALID trace: %s\n" path msg;
        false)
  in
  let metrics_ok =
    match metrics_file with
    | None -> true
    | Some path ->
      (match Lacr_obs.Export.validate_metrics_file path with
      | Ok n ->
        Printf.printf "%s: valid metrics, %d counters\n" path n;
        true
      | Error msg ->
        Printf.eprintf "%s: INVALID metrics: %s\n" path msg;
        false)
  in
  if trace_file = None && metrics_file = None then begin
    prerr_endline "trace-check: nothing to check (pass a trace file and/or --metrics FILE)";
    1
  end
  else if trace_ok && metrics_ok then 0
  else 1

(* --- table1 --- *)

let run_table1 seed domains second csv =
  let config = config_with ?seed ?domains () in
  let rows =
    List.filter_map
      (fun (name, netlist) ->
        Printf.eprintf "planning %s...\n%!" name;
        match Planner.plan_checked ~config ~second_iteration:second netlist with
        | Ok run -> Some (Report.row_of_run ~name run)
        | Error e ->
          Printf.eprintf "  %s failed: %s\n%!" name (Planner.error_message e);
          None)
      (Suite.table1 ())
  in
  print_string (Report.render_table1 rows);
  let mean_frac, max_frac = Report.interconnect_ff_fraction rows in
  Printf.printf "\nFlip-flops in interconnects: mean %.0f%%, max %.0f%% of N_F\n"
    (100.0 *. mean_frac) (100.0 *. max_frac);
  (match csv with
  | None -> ()
  | Some path ->
    Lacr_util.Csv.write_file path ~header:Report.csv_header (List.map Report.csv_row rows);
    Printf.printf "wrote %s\n" path);
  0

(* --- figures --- *)

let run_figures circuit seed =
  print_string (Report.render_flow_figure ());
  print_newline ();
  with_instance ?seed circuit @@ fun inst ->
  print_string (Report.render_tile_figure inst);
  0

(* --- alpha sweep --- *)

let run_alpha circuit seed values =
  with_instance ?seed circuit @@ fun inst ->
  let _, _, t_clk, cs = Planner.retiming_setup inst in
  Printf.printf "alpha sweep on %s (T_clk = %.2f ns)\n" inst.Build.circuit t_clk;
  Printf.printf "%8s %8s %8s %8s\n" "alpha" "N_FOA" "N_F" "N_wr";
  List.iter
    (fun alpha ->
      match Lac.retime ~alpha inst cs with
      | Ok { Lac.lac = o; _ } ->
        Printf.printf "%8.2f %8d %8d %8d\n" alpha o.Lac.n_foa o.Lac.n_f o.Lac.n_wr
      | Error msg -> Printf.printf "%8.2f failed: %s\n" alpha msg)
    values;
  0

(* --- verify-warm: warm/cold solver cross-check --- *)

let run_verify_warm circuit seed =
  with_instance ?seed circuit @@ fun inst ->
  let _, _, _, cs = Planner.retiming_setup inst in
  match (Lac.retime ~reuse:false inst cs, Lac.retime inst cs) with
  | Error msg, _ | _, Error msg ->
    Printf.eprintf "verify-warm %s: solver failed: %s\n" circuit msg;
    1
  | Ok { Lac.lac = cold; _ }, Ok { Lac.lac = warm; _ } ->
    let identical =
      cold.Lac.labels = warm.Lac.labels && cold.Lac.n_foa = warm.Lac.n_foa
      && cold.Lac.n_f = warm.Lac.n_f && cold.Lac.n_fn = warm.Lac.n_fn
      && cold.Lac.trace = warm.Lac.trace
    in
    let warm_hits =
      List.length
        (List.filter
           (fun (s : Lacr_mcmf.Mcmf.stats) -> s.Lacr_mcmf.Mcmf.warm_start)
           warm.Lac.solver)
    in
    Printf.printf
      "verify-warm %s: rounds=%d warm_hits=%d cold=(N_FOA %d, N_F %d, N_FN %d) warm=(N_FOA \
       %d, N_F %d, N_FN %d) -> %s\n"
      inst.Build.circuit warm.Lac.n_wr warm_hits cold.Lac.n_foa cold.Lac.n_f cold.Lac.n_fn
      warm.Lac.n_foa warm.Lac.n_f warm.Lac.n_fn
      (if identical then "identical" else "MISMATCH");
    if identical then 0
    else begin
      prerr_endline "verify-warm: warm-started engine diverged from cold per-round compiles";
      1
    end

(* --- verify-route: cross-domain router determinism check --- *)

let run_verify_route circuit seed =
  (* Sanitize on: exercises the post-route demand recount and the
     Routing_error paths while cross-checking pool sizes. *)
  Lacr_util.Sanitize.with_enabled true @@ fun () ->
  with_instance ?seed circuit @@ fun inst ->
  let module Gr = Lacr_routing.Global_router in
  let tg = inst.Build.tilegraph in
  let nets = inst.Build.routing.Build.nets in
  let passes = inst.Build.config.Config.route_passes in
  let route_with size =
    Lacr_util.Pool.with_pool ~size (fun pool -> Gr.route_all ~passes ~pool tg nets)
  in
  match List.map route_with [ 1; 2; 4 ] with
  | exception Lacr_util.Sanitize.Violation { invariant; detail } ->
    Printf.eprintf "verify-route %s: sanitizer violation [%s]: %s\n" circuit invariant detail;
    2
  | ([ r1; _; _ ] as results) ->
    List.iteri
      (fun i r ->
        Printf.printf
          "verify-route %s: domains=%d nets=%d wirelength=%.4f mm overflow=%.2f passes=%d\n"
          inst.Build.circuit
          (List.nth [ 1; 2; 4 ] i)
          (Array.length r.Gr.nets) r.Gr.total_wirelength r.Gr.overflow
          (Array.length r.Gr.pass_overflow))
      results;
    let identical =
      List.for_all
        (fun r ->
          r.Gr.nets = r1.Gr.nets
          && r.Gr.total_wirelength = r1.Gr.total_wirelength
          && r.Gr.overflow = r1.Gr.overflow
          && r.Gr.pass_overflow = r1.Gr.pass_overflow)
        results
    in
    if identical then begin
      print_endline "verify-route: routed results bit-identical across domains 1/2/4";
      0
    end
    else begin
      prerr_endline "verify-route: MISMATCH across pool sizes";
      1
    end
  | _ -> 1

(* --- verify-constraints: the frontier gate at scale --- *)

(* The test suite checks the constraint passes against the dense
   reference on small circuits; what only a scale run can check is the
   frontier gate: at the planner's T_clk, skipping the sources the
   frontier proves constraint-free must not change a row, a candidate
   count or (pruned) a target-pass column.  Runs the set-up stages up
   to T_clk only: the passes below replace constraint generation. *)
let run_verify_constraints circuit seed domains =
  with_instance ?seed ?domains circuit @@ fun inst ->
  let module P = Lacr_retime.Paths in
  (* Only the config, the graph and the pin constraints are read from
     here on, so the rest of the instance can be collected before the
     passes run. *)
  let config = inst.Build.config in
  let name = inst.Build.circuit in
  let g = inst.Build.graph in
  let extra = inst.Build.pin_constraints in
  Lacr_util.Pool.with_pool
    ~size:(Lacr_util.Pool.resolve_size ~requested:config.Config.domains)
    (fun pool ->
      match P.compute ~pool ~extra g with
      | P.Dense _ ->
        prerr_endline "verify-constraints: expected the streamed (W,D) frontier";
        1
      | P.Streamed fr as wd ->
        let mp = Lacr_retime.Feasibility.min_period ~extra g wd in
        let t_min = mp.Lacr_retime.Feasibility.period in
        let t_clk = Config.t_clk config ~t_init:(Lacr_retime.Graph.clock_period g) ~t_min in
        let failures = ref 0 in
        List.iter
          (fun prune ->
            let full = P.source_pass_flat ~pool ~prune g ~period:t_clk in
            let gated = P.source_pass_flat ~pool ~frontier:fr ~prune g ~period:t_clk in
            let rows_ok =
              gated.P.sr_off = full.P.sr_off
              && gated.P.sr_dst = full.P.sr_dst
              && gated.P.sr_wgt = full.P.sr_wgt
              && gated.P.sr_candidates = full.P.sr_candidates
            in
            let cols_ok =
              (not prune)
              || P.prune_target_pass_flat ~pool g gated = P.prune_target_pass_flat ~pool g full
            in
            Printf.printf
              "verify-constraints %s: prune=%b T_clk=%.6f rows=%d candidates=%d swept \
               gated/full=%d/%d -> %s\n%!"
              name prune t_clk
              full.P.sr_off.(P.num_vertices wd)
              full.P.sr_candidates gated.P.sr_scanned full.P.sr_scanned
              (if not rows_ok then "ROW MISMATCH"
               else if not cols_ok then "COLUMN MISMATCH"
               else "identical");
            if not (rows_ok && cols_ok) then incr failures)
          [ false; true ];
        if !failures = 0 then begin
          print_endline "verify-constraints: frontier-gated passes identical to the full passes";
          0
        end
        else begin
          prerr_endline "verify-constraints: the frontier gate changed the constraint rows";
          1
        end)

(* --- retime: export a retimed .bench --- *)

(* A bare netlist has no floorplan, so this runs the retiming set-up
   stages on its sequential view, with [slack] as the clk_fraction. *)
let run_retime circuit slack output =
  with_view circuit @@ fun netlist view ->
  let g = Lacr_retime.Graph.of_seqview view in
  let extra = Lacr_retime.Graph.io_pin_constraints view ~host:(Lacr_retime.Graph.host g) in
  let wd = Lacr_retime.Paths.compute ~extra g in
  let mp = Lacr_retime.Feasibility.min_period ~extra g wd in
  let t_min = mp.Lacr_retime.Feasibility.period in
  let t_init = Lacr_retime.Graph.clock_period g in
  let period = Config.t_clk { Config.default with Config.clk_fraction = slack } ~t_init ~t_min in
  let cs = Lacr_retime.Constraints.generate ~prune:true ~extra g wd ~period in
  let* solution = Lacr_retime.Min_area.solve g cs in
  let labels =
    Array.sub solution.Lacr_retime.Min_area.labels 0 (Lacr_netlist.Seqview.num_units view)
  in
  let* rebuilt = Lacr_netlist.Rebuild.of_labels netlist view labels in
  (match output with
  | Some path ->
    Lacr_netlist.Bench_io.write_file path rebuilt;
    Printf.printf "wrote %s: period %.2f -> %.2f ns, flip-flops %d -> %d\n" path t_init period
      (Lacr_netlist.Netlist.num_dffs netlist)
      (Lacr_netlist.Netlist.num_dffs rebuilt)
  | None -> print_string (Lacr_netlist.Bench_io.to_string rebuilt));
  0

(* --- export-dot --- *)

let run_dot circuit =
  with_view circuit @@ fun _ view ->
  print_string (Lacr_netlist.Dot.of_seqview view);
  0

(* --- stats --- *)

let run_stats circuit =
  with_view circuit @@ fun netlist view ->
  let* s = Lacr_netlist.Levelize.stats view in
  Format.printf "%s: %a@." (Lacr_netlist.Netlist.name netlist) Lacr_netlist.Levelize.pp_stats s;
  (match Lacr_netlist.Sweep.sweep netlist with
  | Ok sw when sw.Lacr_netlist.Sweep.removed_gates + sw.Lacr_netlist.Sweep.removed_dffs > 0 ->
    Printf.printf "dead logic: %d gates and %d flip-flops are unobservable\n"
      sw.Lacr_netlist.Sweep.removed_gates sw.Lacr_netlist.Sweep.removed_dffs
  | Ok _ -> print_endline "no dead logic"
  | Error msg -> prerr_endline msg);
  0

(* --- serve-client: deterministic load generator for lacrd --- *)

let run_serve_client socket tcp connections requests seed mix verify second wait shutdown =
  let module Serve = Lacr_serve in
  let endpoint =
    match tcp with
    | Some port -> Serve.Protocol.Tcp port
    | None ->
      Serve.Protocol.Unix_path (match socket with Some path -> path | None -> "lacrd.sock")
  in
  let options =
    {
      Serve.Loadgen.endpoint;
      connections;
      requests;
      seed;
      mix;
      verify;
      second_iteration = second;
      wait_s = wait;
      shutdown_after = shutdown;
    }
  in
  match Serve.Loadgen.run options with
  | Error msg ->
    prerr_endline ("serve-client: " ^ msg);
    1
  | Ok summary ->
    print_string (Serve.Loadgen.render_summary summary);
    if Serve.Loadgen.passed summary then 0 else 1

(* --- info --- *)

let run_info () =
  let table = Lacr_util.Table.create
      [ ("circuit", Lacr_util.Table.Left); ("inputs", Lacr_util.Table.Right);
        ("outputs", Lacr_util.Table.Right); ("dffs", Lacr_util.Table.Right);
        ("gates", Lacr_util.Table.Right) ]
  in
  let add name netlist =
    Lacr_util.Table.add_row table
      [
        name;
        string_of_int (Lacr_netlist.Netlist.num_inputs netlist);
        string_of_int (Lacr_netlist.Netlist.num_outputs netlist);
        string_of_int (Lacr_netlist.Netlist.num_dffs netlist);
        string_of_int (Lacr_netlist.Netlist.num_gates netlist);
      ]
  in
  add "s27" (Suite.s27 ());
  List.iter (fun (name, n) -> add (name ^ "*") n) (Suite.table1 ());
  Lacr_util.Table.print table;
  print_endline "(* = synthetic stand-in with the published ISCAS89 statistics)";
  0

(* --- cmdliner wiring --- *)

open Cmdliner

let circuit_arg =
  Arg.(value & pos 0 string "s298" & info [] ~docv:"CIRCUIT" ~doc:"Suite name or .bench file.")

let seed_arg =
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc:"Planner random seed.")

let verbose_arg = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print planning detail.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains for the parallel planner kernels ((W,D) matrices, constraint \
           generation, flip-flop accounting): 1 = sequential (default), 0 = one per core. \
           The LACR_DOMAINS environment variable overrides this flag. Results are identical \
           for every value.")

let sanitize_arg =
  Arg.(
    value & flag
    & info [ "sanitize" ]
        ~doc:
          "Run the solver sanitizer for the whole plan: flow conservation and reduced-cost \
           admissibility after every min-cost-flow solve, retiming legality and cycle \
           flip-flop sums after every LAC round, per-tile accounting, CSR well-formedness \
           and span balance. Violations abort with exit code 2. Equivalent to \
           LACR_SANITIZE=1; the planned result is bit-identical, just slower.")

let second_arg =
  Arg.(
    value & opt bool true
    & info [ "second-iteration" ] ~docv:"BOOL"
        ~doc:"Run the floorplan-expansion second planning iteration when violations remain.")

let alphas_arg =
  Arg.(
    value
    & opt (list float) [ 0.0; 0.1; 0.2; 0.3; 0.5; 0.8; 1.0 ]
    & info [ "alphas" ] ~docv:"LIST" ~doc:"Alpha values to sweep.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON of the run (nested spans for build, routing, \
           repeater insertion, (W,D) paths, constraints and every LAC re-weighting round; one \
           track per worker domain). Load it in chrome://tracing or https://ui.perfetto.dev. \
           Tracing never changes planner output.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write flat metrics of the run (counters, histograms, per-stage span totals) as JSON, \
           or CSV when FILE ends in .csv. Counter aggregates are bit-identical for every \
           $(b,--domains) setting.")

let route_passes_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "route-passes" ] ~docv:"N"
        ~doc:"Rip-up/re-route passes after the initial routing pass (default 2).")

let plan_cmd =
  let doc = "Run the interconnect planner on one circuit." in
  Cmd.v (Cmd.info "plan" ~doc)
    Term.(
      const run_plan $ circuit_arg $ seed_arg $ domains_arg $ sanitize_arg $ route_passes_arg
      $ verbose_arg $ second_arg $ trace_arg $ metrics_arg)

let trace_check_file_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"TRACE" ~doc:"Chrome trace JSON produced by $(b,plan --trace).")

let trace_check_metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE" ~doc:"Metrics JSON/CSV produced by $(b,plan --metrics).")

let expect_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "expect" ] ~docv:"NAMES"
        ~doc:"Comma-separated span names that must appear in the trace.")

let trace_check_cmd =
  let doc =
    "Validate observability exports: well-formed Chrome trace JSON with strictly monotone \
     per-track timestamps (and expected span names), well-formed metrics dumps."
  in
  Cmd.v (Cmd.info "trace-check" ~doc)
    Term.(const run_trace_check $ trace_check_file_arg $ trace_check_metrics_arg $ expect_arg)

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also write the rows as CSV.")

let table1_cmd =
  let doc = "Reproduce the paper's Table 1 over the benchmark suite." in
  Cmd.v (Cmd.info "table1" ~doc)
    Term.(const run_table1 $ seed_arg $ domains_arg $ second_arg $ csv_arg)

let figures_cmd =
  let doc = "Render ASCII versions of the paper's Figures 1 and 2." in
  Cmd.v (Cmd.info "figures" ~doc) Term.(const run_figures $ circuit_arg $ seed_arg)

let alpha_cmd =
  let doc = "Sweep the LAC weight-update coefficient alpha (paper 4.2)." in
  Cmd.v (Cmd.info "alpha" ~doc) Term.(const run_alpha $ circuit_arg $ seed_arg $ alphas_arg)

let info_cmd =
  let doc = "Print benchmark-suite statistics." in
  Cmd.v (Cmd.info "info" ~doc) Term.(const run_info $ const ())

let slack_arg =
  Arg.(
    value & opt float 0.2
    & info [ "slack" ] ~docv:"FRAC"
        ~doc:"Target period = T_min + FRAC * (T_init - T_min).")

let output_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "output"; "o" ] ~docv:"FILE" ~doc:"Write the retimed .bench here (default stdout).")

let verify_warm_cmd =
  let doc =
    "Cross-check the warm-started successive-instance LAC solver against cold per-round \
     compiles (exits non-zero on any outcome mismatch)."
  in
  Cmd.v (Cmd.info "verify-warm" ~doc) Term.(const run_verify_warm $ circuit_arg $ seed_arg)

let verify_route_cmd =
  let doc =
    "Route one circuit's nets with 1, 2 and 4 worker domains under the sanitizer and check \
     that the routed results are bit-identical (exits non-zero on any mismatch)."
  in
  Cmd.v (Cmd.info "verify-route" ~doc) Term.(const run_verify_route $ circuit_arg $ seed_arg)

let verify_constraints_cmd =
  let doc =
    "At the planner's T_clk, run the constraint source pass with and without the streamed \
     frontier's active-source gate (pruned and unpruned) and require identical rows, \
     candidate counts and pruned target-pass columns (exits non-zero on any divergence)."
  in
  Cmd.v (Cmd.info "verify-constraints" ~doc)
    Term.(const run_verify_constraints $ circuit_arg $ seed_arg $ domains_arg)

let retime_cmd =
  let doc = "Min-area retime a circuit and emit the retimed .bench netlist." in
  Cmd.v (Cmd.info "retime" ~doc)
    Term.(const run_retime $ circuit_arg $ slack_arg $ output_arg)

let dot_cmd =
  let doc = "Export the sequential view as Graphviz DOT." in
  Cmd.v (Cmd.info "export-dot" ~doc) Term.(const run_dot $ circuit_arg)

let stats_cmd =
  let doc = "Print structural statistics (levelization, dead logic)." in
  Cmd.v (Cmd.info "stats" ~doc) Term.(const run_stats $ circuit_arg)

let serve_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket the daemon listens on (default lacrd.sock).")

let serve_tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT" ~doc:"Connect over loopback TCP instead of a Unix socket.")

let connections_arg =
  Arg.(value & opt int 2 & info [ "connections" ] ~docv:"N" ~doc:"Concurrent connections.")

let requests_arg =
  Arg.(value & opt int 20 & info [ "requests" ] ~docv:"N" ~doc:"Total plan requests to send.")

let loadgen_seed_arg =
  Arg.(
    value & opt int 7
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Schedule seed: the circuit mix per request is a pure function of it.")

let mix_arg =
  Arg.(
    value
    & opt (list string) [ "s27"; "s27"; "s27"; "s298" ]
    & info [ "mix" ] ~docv:"LIST"
        ~doc:
          "Comma-separated circuit names the schedule draws from (duplicates weight the \
           draw); suite names or hier:UNITS[:SEED].")

let verify_arg =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:
          "Re-plan every distinct circuit in-process and require the daemon's result \
           subtrees to be byte-identical (warm and cold alike); also check the metrics \
           aggregate against the sum of per-request echoes.")

let wait_arg =
  Arg.(
    value & opt float 10.0
    & info [ "wait" ] ~docv:"SECONDS"
        ~doc:"Connect-retry window, for daemons still starting up.")

let shutdown_arg =
  Arg.(
    value & flag
    & info [ "shutdown" ] ~doc:"Send a shutdown request after the final metrics pull.")

let serve_client_cmd =
  let doc =
    "Deterministic load generator for lacrd: concurrent connections, a seeded request mix, \
     byte-level verification of warm-cache responses against fresh single-shot plans, and \
     metrics validation. Exits non-zero on any mismatch or non-load failure."
  in
  Cmd.v (Cmd.info "serve-client" ~doc)
    Term.(
      const run_serve_client $ serve_socket_arg $ serve_tcp_arg $ connections_arg
      $ requests_arg $ loadgen_seed_arg $ mix_arg $ verify_arg $ second_arg $ wait_arg
      $ shutdown_arg)

let main_cmd =
  let doc = "interconnect planning with local area constrained retiming (DATE 2003)" in
  Cmd.group (Cmd.info "lacr" ~version:"1.0.0" ~doc)
    [
      plan_cmd;
      table1_cmd;
      figures_cmd;
      alpha_cmd;
      info_cmd;
      verify_warm_cmd;
      verify_route_cmd;
      verify_constraints_cmd;
      retime_cmd;
      dot_cmd;
      stats_cmd;
      trace_check_cmd;
      serve_client_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
