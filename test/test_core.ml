(* Core (LAC-retiming planner) tests on small circuits: instance
   invariants, area accounting, LAC vs min-area behaviour, pipeline
   determinism, reporting. *)

module Build = Lacr_core.Build
module Area = Lacr_core.Area
module Lac = Lacr_core.Lac
module Planner = Lacr_core.Planner
module Report = Lacr_core.Report
module Config = Lacr_core.Config
module Graph = Lacr_retime.Graph
module Paths = Lacr_retime.Paths
module Constraints = Lacr_retime.Constraints
module Tilegraph = Lacr_tilegraph.Tilegraph
module Synth = Lacr_circuits.Synth
module Suite = Lacr_circuits.Suite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_circuit () =
  Synth.generate
    { Synth.name = "small"; n_inputs = 4; n_outputs = 3; n_dffs = 8; n_gates = 60; levels = 6; seed = 4242 }

let build_small () =
  match Build.build (small_circuit ()) with
  | Ok inst -> inst
  | Error msg -> Alcotest.failf "build: %s" msg

let test_instance_invariants () =
  let inst = build_small () in
  let g = inst.Build.graph in
  let n = Graph.num_vertices g in
  check_int "vertex count" n (inst.Build.n_units + inst.Build.n_interconnect_units + 1);
  check_int "vertex_tile arity" n (Array.length inst.Build.vertex_tile);
  (* Host has no tile; all other vertices have a valid tile. *)
  let host = Graph.host g in
  check_int "host tile" (-1) inst.Build.vertex_tile.(host);
  Array.iteri
    (fun v tile ->
      if v <> host then
        check "tile in range" true (tile >= 0 && tile < Tilegraph.num_tiles inst.Build.tilegraph))
    inst.Build.vertex_tile;
  (* Total flip-flops preserved from the netlist view. *)
  check_int "ffs preserved" (Lacr_netlist.Seqview.total_ffs inst.Build.view) (Graph.total_ffs g);
  (* No zero-weight cycle: the clock period is well-defined. *)
  check "clock period computes" true (Graph.clock_period g > 0.0);
  (* Interconnect vertices have exactly one fan-in and one fan-out. *)
  let fanin = Array.make n 0 and fanout = Array.make n 0 in
  Array.iter
    (fun (e : Graph.edge) ->
      fanout.(e.Graph.src) <- fanout.(e.Graph.src) + 1;
      fanin.(e.Graph.dst) <- fanin.(e.Graph.dst) + 1)
    (Graph.edges g);
  for v = 0 to n - 1 do
    if Build.interconnect_vertex inst v then begin
      check_int "interconnect fanin" 1 fanin.(v);
      check_int "interconnect fanout" 1 fanout.(v)
    end
  done

let test_interconnect_delay_positive () =
  let inst = build_small () in
  let g = inst.Build.graph in
  let any_interconnect = ref false in
  for v = 0 to Graph.num_vertices g - 1 do
    if Build.interconnect_vertex inst v then begin
      any_interconnect := true;
      check "wire unit has delay" true (Graph.delay g v > 0.0)
    end
  done;
  check "instance has interconnect units" true !any_interconnect

let test_area_accounting_consistent () =
  let inst = build_small () in
  let identity = Array.make (Graph.num_vertices inst.Build.graph) 0 in
  let consumption = Area.consumption inst ~labels:identity in
  let total_charged = Array.fold_left ( +. ) 0.0 consumption in
  (* Every flip-flop has a tile except those on host edges (none under
     identity, since the host is isolated). *)
  let ff_area = Config.default.Config.delay_model.Lacr_repeater.Delay_model.ff_area in
  let expected = float_of_int (Graph.total_ffs inst.Build.graph) *. ff_area in
  check "all ffs charged" true (abs_float (total_charged -. expected) < 1e-6);
  check_int "ff_count matches graph" (Graph.total_ffs inst.Build.graph)
    (Area.ff_count inst ~labels:identity);
  check_int "identity has no wire ffs" 0 (Area.ff_in_interconnect inst ~labels:identity)

let setup_constraints inst =
  let _, _, _, cs = Planner.retiming_setup inst in
  cs

let test_minarea_and_lac_legal () =
  let inst = build_small () in
  let cs = setup_constraints inst in
  match Lac.retime inst cs with
  | Error msg -> Alcotest.failf "lac: %s" msg
  | Ok { Lac.minarea = ma; lac } ->
    check "min-area labels legal" true (Graph.is_legal inst.Build.graph ma.Lac.labels);
    check "constraints satisfied" true (Constraints.satisfied_by cs ma.Lac.labels);
    check_int "one weighted retiming" 1 ma.Lac.n_wr;
    check "min-area has no convergence trace" true (ma.Lac.trace = []);
    check "min-area solver stats are round 0's" true
      (ma.Lac.solver = [ List.hd lac.Lac.solver ]);
    check_int "min-area N_FOA is round 0's" (fst (List.hd lac.Lac.trace)) ma.Lac.n_foa;
    check "lac labels legal" true (Graph.is_legal inst.Build.graph lac.Lac.labels);
    check "lac constraints satisfied" true (Constraints.satisfied_by cs lac.Lac.labels);
    check "nwr at least 1" true (lac.Lac.n_wr >= 1);
    check "trace recorded" true (List.length lac.Lac.trace = lac.Lac.n_wr)

let test_lac_never_worse_on_violations () =
  let inst = build_small () in
  let cs = setup_constraints inst in
  match Lac.retime inst cs with
  | Ok { Lac.minarea = ma; lac } ->
    check "lac <= min-area violations" true (lac.Lac.n_foa <= ma.Lac.n_foa)
  | Error m -> Alcotest.fail m

let test_lac_alpha_validation () =
  let inst = build_small () in
  let cs = setup_constraints inst in
  match Lac.retime ~alpha:1.5 inst cs with
  | exception Invalid_argument _ -> ()
  | Ok _ | Error _ -> Alcotest.fail "alpha out of range accepted"

let test_io_latency_preserved () =
  (* The pin constraints force r = 0 on every primary input and
     output, so interface latency cannot change. *)
  let inst = build_small () in
  let cs = setup_constraints inst in
  match Lac.retime inst cs with
  | Error msg -> Alcotest.fail msg
  | Ok { Lac.minarea; lac } ->
    List.iter
      (fun (o : Lac.outcome) ->
        List.iter
          (fun v -> check_int "pi label" 0 o.Lac.labels.(v))
          inst.Build.view.Lacr_netlist.Seqview.primary_inputs;
        List.iter
          (fun v -> check_int "po label" 0 o.Lac.labels.(v))
          inst.Build.view.Lacr_netlist.Seqview.primary_outputs)
      [ minarea; lac ]

let test_plan_end_to_end () =
  match Planner.plan_checked ~second_iteration:false (small_circuit ()) with
  | Error e -> Alcotest.failf "plan: %s" (Planner.error_message e)
  | Ok run ->
    check "t_min <= t_clk" true (run.Planner.t_min <= run.Planner.t_clk +. 1e-9);
    check "t_clk <= t_init" true (run.Planner.t_clk <= run.Planner.t_init +. 1e-9);
    (* Both retimings meet the target period on the retimed graph. *)
    let check_period outcome name =
      match Graph.retime run.Planner.instance.Build.graph outcome.Lac.labels with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok retimed ->
        check (name ^ " meets period") true
          (Graph.clock_period retimed <= run.Planner.t_clk +. 1e-6)
    in
    check_period run.Planner.minarea "min-area";
    check_period run.Planner.lac "lac"

let test_plan_deterministic () =
  let plan () =
    match Planner.plan_checked ~second_iteration:false (small_circuit ()) with
    | Ok run -> run
    | Error e -> Alcotest.failf "plan: %s" (Planner.error_message e)
  in
  let a = plan () and b = plan () in
  check_int "same lac n_foa" a.Planner.lac.Lac.n_foa b.Planner.lac.Lac.n_foa;
  check_int "same lac n_f" a.Planner.lac.Lac.n_f b.Planner.lac.Lac.n_f;
  check "same labels" true (a.Planner.lac.Lac.labels = b.Planner.lac.Lac.labels)

let test_s27_plan () =
  match Planner.plan_checked ~second_iteration:false (Suite.s27 ()) with
  | Error e -> Alcotest.failf "s27 plan: %s" (Planner.error_message e)
  | Ok run ->
    check "t_init positive" true (run.Planner.t_init > 0.0);
    check_int "three flip-flops survive" 3 run.Planner.lac.Lac.n_f

let test_report_row_and_table () =
  match Planner.plan_checked ~second_iteration:false (small_circuit ()) with
  | Error e -> Alcotest.failf "plan: %s" (Planner.error_message e)
  | Ok run ->
    let row = Report.row_of_run ~name:"small" run in
    let table = Report.render_table1 [ row ] in
    check "row name present" true
      (String.length table > 0
      &&
      let re_found = ref false in
      String.iteri
        (fun i _ ->
          if i + 5 <= String.length table && String.sub table i 5 = "small" then re_found := true)
        table;
      !re_found);
    (* Average line present. *)
    check "average present" true
      (let found = ref false in
       String.iteri
         (fun i _ ->
           if i + 7 <= String.length table && String.sub table i 7 = "Average" then found := true)
         table;
       !found)

(* Pinned LAC outcomes on s27 and s386 (re-pinned when the negotiated
   A* router replaced the seed maze engine: its routed aggregates are
   identical to the seed's — same total wirelength, zero overflow on
   both circuits — but its deterministic (cost, cell) tie-break picks
   different equal-cost path shapes than the seed's float-keyed heap
   order, which moves the plateau the s386 re-weighting loop stalls
   on from N_FOA = 3 over 12 rounds to N_FOA = 4 over 11).  The
   warm-started successive-instance engine
   must reproduce the trajectory exactly — same violation/flip-flop
   counts, same number of rounds, same convergence trace — and its
   per-round solver stats must show round 1 cold and every later round
   warm.  Guards the canonical-potential argument: warm starts may not
   steer the re-weighting loop onto a different trajectory. *)
let run_lac name =
  let netlist = Option.get (Suite.by_name name) in
  match Build.build netlist with
  | Error msg -> Alcotest.failf "%s build: %s" name msg
  | Ok inst -> (
    let cs = setup_constraints inst in
    match Lac.retime inst cs with
    | Error msg -> Alcotest.failf "%s lac: %s" name msg
    | Ok outcomes -> outcomes.Lac.lac)

let check_pinned name outcome ~n_foa ~n_f ~n_fn ~n_wr ~trace ~work =
  check_int (name ^ " n_foa") n_foa outcome.Lac.n_foa;
  check_int (name ^ " n_f") n_f outcome.Lac.n_f;
  check_int (name ^ " n_fn") n_fn outcome.Lac.n_fn;
  check_int (name ^ " n_wr") n_wr outcome.Lac.n_wr;
  check_int (name ^ " trace length") n_wr (List.length outcome.Lac.trace);
  List.iteri
    (fun i ((foa, area), (got_foa, got_area)) ->
      check_int (Printf.sprintf "%s trace[%d] foa" name i) foa got_foa;
      check (Printf.sprintf "%s trace[%d] area" name i) true (abs_float (area -. got_area) < 1e-4))
    (List.combine trace outcome.Lac.trace);
  (* Solver observability: one stats record per round, first cold,
     rest warm-started, each with the pinned (phases, settles,
     pushes): the flow solver's push schedule, which a faster kernel
     must leave exactly as it is. *)
  check_int (name ^ " solver length") n_wr (List.length outcome.Lac.solver);
  check_int (name ^ " work length") n_wr (List.length work);
  List.iteri
    (fun i ((s : Lacr_mcmf.Mcmf.stats), (phases, settles, pushes)) ->
      let label what = Printf.sprintf "%s round %d %s" name i what in
      check (label "warm flag") (i > 0) s.Lacr_mcmf.Mcmf.warm_start;
      check_int (label "phases") phases s.Lacr_mcmf.Mcmf.phases;
      check_int (label "settles") settles s.Lacr_mcmf.Mcmf.settles;
      check_int (label "pushes") pushes s.Lacr_mcmf.Mcmf.pushes)
    (List.combine outcome.Lac.solver work)

let test_pinned_s27 () =
  check_pinned "s27" (run_lac "s27") ~n_foa:0 ~n_f:3 ~n_fn:0 ~n_wr:1 ~trace:[ (0, 3.0) ]
    ~work:[ (1, 11, 91) ]

let test_pinned_s386 () =
  check_pinned "s386" (run_lac "s386") ~n_foa:4 ~n_f:44 ~n_fn:11 ~n_wr:11
    ~trace:
      [
        (7, 44.000500);
        (4, 54.143476);
        (4, 67.169253);
        (5, 83.403350);
        (4, 101.071573);
        (4, 126.884057);
        (4, 160.383368);
        (4, 204.202214);
        (5, 254.904010);
        (4, 319.461616);
        (4, 412.889544);
      ]
    ~work:
      [
        (4, 1327, 1566);
        (5, 1240, 2250);
        (5, 1295, 2307);
        (5, 1845, 2345);
        (5, 1814, 2324);
        (5, 1372, 2371);
        (5, 1300, 2274);
        (5, 1165, 2342);
        (5, 1819, 2325);
        (5, 1798, 2373);
        (5, 1751, 2327);
      ]

(* Why LAC stopped, on traced runs of the planner's set-up: s820
   reaches zero violations in 3 rounds, s298 stalls (more than n_max
   non-improving rounds) after 14, and s953 hits the 30-round cap.
   The [lac.retime] span names the exit in its [stop] attribute and
   exactly one [lac.stop.<reason>] counter counts it; the
   [mcmf.arc_scans] counter and each [lac.round] span's [arc_scans]
   attribute agree with the per-round solver stats. *)
let test_lac_stop_reasons () =
  let module Obs = Lacr_obs.Trace in
  List.iter
    (fun (name, stop, rounds) ->
      let netlist = Option.get (Suite.by_name name) in
      match Build.build netlist with
      | Error msg -> Alcotest.failf "%s build: %s" name msg
      | Ok inst -> (
        let _, _, _, cs = Planner.retiming_setup inst in
        let obs = Obs.create () in
        match Lac.retime ~obs inst cs with
        | Error msg -> Alcotest.failf "%s lac: %s" name msg
        | Ok { Lac.lac = outcome; _ } ->
          check_int (name ^ " rounds") rounds outcome.Lac.n_wr;
          let counters = Obs.counter_totals obs in
          let stops =
            List.filter (fun (k, _) -> String.starts_with ~prefix:"lac.stop." k) counters
          in
          check (name ^ " one stop counter") true (stops = [ ("lac.stop." ^ stop, 1) ]);
          let events = List.concat_map snd (Obs.events obs) in
          let spans_named span = List.filter (fun e -> e.Obs.ev_name = span) events in
          (match spans_named "lac.retime" with
          | [ e ] ->
            check (name ^ " stop attribute") true
              (List.assoc_opt "stop" e.Obs.ev_attrs = Some (Obs.Str stop))
          | l -> Alcotest.failf "%s: %d lac.retime spans" name (List.length l));
          let scans =
            List.map
              (fun (s : Lacr_mcmf.Mcmf.stats) -> s.Lacr_mcmf.Mcmf.arc_scans)
              outcome.Lac.solver
          in
          check_int (name ^ " mcmf.arc_scans counter") (List.fold_left ( + ) 0 scans)
            (Option.value (List.assoc_opt "mcmf.arc_scans" counters) ~default:(-1));
          let round_attrs =
            List.map
              (fun e -> List.assoc_opt "arc_scans" e.Obs.ev_attrs)
              (spans_named "lac.round")
          in
          check (name ^ " lac.round arc_scans attributes") true
            (round_attrs = List.map (fun n -> Some (Obs.Int n)) scans)))
    [ ("s820", "zero_violations", 3); ("s298", "stalled", 14); ("s953", "max_wr", 30) ]

(* Table 1's min-area column is LAC round 0: a traced first-iteration
   plan of s386 runs one flow solve per LAC round, starts cold once and
   has no separate min-area span, and a warm request through a
   resident session compiles nothing and starts cold nowhere.  The
   min-area outcome is pinned: N_FOA 7 (LAC's round-0 count), N_F 44,
   N_FN 5 and its labels hash. *)
let test_minarea_is_round_zero () =
  let module Obs = Lacr_obs.Trace in
  let netlist = Option.get (Suite.by_name "s386") in
  let counter obs name = Option.value (List.assoc_opt name (Obs.counter_totals obs)) ~default:0 in
  (* The distinct [lac.*] span names: one compile, the run and its
     rounds, and no span of a separate min-area solve. *)
  let lac_spans obs =
    List.concat_map snd (Obs.events obs)
    |> List.filter_map (fun e ->
           if String.starts_with ~prefix:"lac." e.Obs.ev_name then Some e.Obs.ev_name else None)
    |> List.sort_uniq String.compare
  in
  let body run = Lacr_obs.Jsonx.to_string (Lacr_serve.Service.result_body run) in
  let obs = Obs.create () in
  match Planner.plan_checked ~second_iteration:false ~trace:obs netlist with
  | Error e -> Alcotest.failf "s386 plan: %s" (Planner.error_message e)
  | Ok run -> (
    check_int "lac.rounds" 11 (counter obs "lac.rounds");
    check_int "mcmf.solves = lac.rounds" 11 (counter obs "mcmf.solves");
    check_int "one cold start" 1 (counter obs "mcmf.cold_starts");
    check "lac spans" true (lac_spans obs = [ "lac.compile"; "lac.retime"; "lac.round" ]);
    let ma = run.Planner.minarea in
    check_int "min-area N_FOA" 7 ma.Lac.n_foa;
    check_int "min-area N_FOA is LAC round 0's" (fst (List.hd run.Planner.lac.Lac.trace))
      ma.Lac.n_foa;
    check_int "min-area N_F" 44 ma.Lac.n_f;
    check_int "min-area N_FN" 5 ma.Lac.n_fn;
    check_int "min-area n_wr" 1 ma.Lac.n_wr;
    let minarea_hash =
      Option.bind (Lacr_obs.Jsonx.member "minarea" (Lacr_serve.Service.result_body run))
        (Lacr_obs.Jsonx.member "labels_hash")
    in
    check "min-area labels_hash" true
      (Option.bind minarea_hash Lacr_obs.Jsonx.to_float = Some 394640879.0);
    match Planner.prepare netlist with
    | Error err -> Alcotest.failf "s386 prepare: %s" (Planner.error_message err)
    | Ok prepared -> (
      let session =
        match Planner.compile_solver prepared with
        | Ok c -> c
        | Error msg -> Alcotest.failf "s386 compile: %s" msg
      in
      let request trace =
        match Planner.plan_prepared ~second_iteration:false ~session ~trace prepared with
        | Ok run -> run
        | Error err -> Alcotest.failf "s386 plan_prepared: %s" (Planner.error_message err)
      in
      (* The session's first request starts from a fresh instance. *)
      ignore (request Obs.disabled);
      let warm_obs = Obs.create () in
      let warm = request warm_obs in
      check_int "warm request: one solve per round" 11 (counter warm_obs "mcmf.solves");
      check_int "warm request: no cold start" 0 (counter warm_obs "mcmf.cold_starts");
      check "warm request: no compile" true (lac_spans warm_obs = [ "lac.retime"; "lac.round" ]);
      Alcotest.(check string) "warm request: same result body" (body run) (body warm)))

(* Streamed path engine pin (ISSUE 7): on a real ISCAS circuit the
   [Stream] backend must reproduce the dense planner outcome exactly —
   same minimum period, same pruned constraint system, same LAC
   trajectory — at every pool size.  The QCheck equivalence property
   covers random small circuits; this pins a full-size planning stage
   on s1423 (657 gates), where the streamed frontier actually prunes. *)
let test_s1423_stream_pin () =
  let netlist = Option.get (Suite.by_name "s1423") in
  match Build.build netlist with
  | Error msg -> Alcotest.failf "s1423 build: %s" msg
  | Ok inst ->
    let g = inst.Build.graph in
    let extra = inst.Build.pin_constraints in
    let stage wd pool =
      let mp = Lacr_retime.Feasibility.min_period ~extra g wd in
      let t_init = Graph.clock_period g in
      let period = mp.Lacr_retime.Feasibility.period in
      let t_clk = Config.t_clk inst.Build.config ~t_init ~t_min:period in
      (period, Constraints.generate ?pool ~prune:true ~extra g wd ~period:t_clk)
    in
    let dense_period, dense_cs = stage (Paths.compute ~mode:Paths.Mode.Dense g) None in
    let stream_outcomes =
      List.map
        (fun size ->
          Lacr_util.Pool.with_pool ~size (fun pool ->
              let wd = Paths.compute ~mode:Paths.Mode.Stream ~pool g in
              stage wd (Some pool)))
        [ 1; 2; 4 ]
    in
    List.iteri
      (fun i (period, cs) ->
        let d = [ 1; 2; 4 ] |> fun l -> List.nth l i in
        check (Printf.sprintf "stream pool %d min period" d) true (period = dense_period);
        check (Printf.sprintf "stream pool %d constraints" d) true (cs = dense_cs))
      stream_outcomes;
    (* The LAC loop sees identical constraints, so its trajectory is
       the dense one; pin the headline counters so a silent change in
       either backend trips this test. *)
    (match Lac.retime inst dense_cs with
    | Error msg -> Alcotest.failf "s1423 lac: %s" msg
    | Ok { Lac.lac = outcome; _ } ->
      check_int "s1423 n_foa" 0 outcome.Lac.n_foa;
      check_int "s1423 n_f" 292 outcome.Lac.n_f;
      check_int "s1423 n_fn" 90 outcome.Lac.n_fn;
      check_int "s1423 n_wr" 6 outcome.Lac.n_wr)

(* The planner's default (W,D) engine is the streamed frontier at
   every size; the dense matrices stay as the oracle.  Whole plans —
   periods, both labellings, the violation counts and the expansion
   re-plan — must not depend on which one ran. *)
let test_default_plan_matches_dense () =
  List.iter
    (fun name ->
      let netlist = Option.get (Suite.by_name name) in
      let plan config =
        match Planner.plan_checked ~config netlist with
        | Ok run -> run
        | Error e -> Alcotest.failf "%s plan: %s" name (Planner.error_message e)
      in
      let auto = plan Config.default in
      let dense = plan { Config.default with Config.paths_mode = Paths.Mode.Dense } in
      let label what = Printf.sprintf "%s %s" name what in
      check (label "t_min") true (Float.equal auto.Planner.t_min dense.Planner.t_min);
      check (label "t_clk") true (Float.equal auto.Planner.t_clk dense.Planner.t_clk);
      let same_outcome stage (a : Lac.outcome) (b : Lac.outcome) =
        check (label (stage ^ " labels")) true (a.Lac.labels = b.Lac.labels);
        check_int (label (stage ^ " N_FOA")) b.Lac.n_foa a.Lac.n_foa;
        check_int (label (stage ^ " N_F")) b.Lac.n_f a.Lac.n_f;
        check_int (label (stage ^ " N_FN")) b.Lac.n_fn a.Lac.n_fn
      in
      same_outcome "min-area" auto.Planner.minarea dense.Planner.minarea;
      same_outcome "lac" auto.Planner.lac dense.Planner.lac;
      let second (r : Planner.run) =
        match r.Planner.second with
        | None -> "none"
        | Some (Error msg) -> "build failed: " ^ msg
        | Some (Ok { Planner.lac2 = Error msg; _ }) -> "lac failed: " ^ msg
        | Some (Ok { Planner.lac2 = Ok o; _ }) -> Printf.sprintf "N_FOA %d" o.Lac.n_foa
      in
      Alcotest.(check string) (label "second iteration") (second dense) (second auto))
    [ "s27"; "s386"; "s1423" ]

let test_figures_render () =
  let flow = Report.render_flow_figure () in
  check "flow mentions retiming" true
    (let found = ref false in
     String.iteri
       (fun i _ ->
         if i + 8 <= String.length flow && String.sub flow i 8 = "Retiming" then found := true)
       flow;
     !found);
  let inst = build_small () in
  let fig2 = Report.render_tile_figure inst in
  check "figure 2 non-empty" true (String.length fig2 > 100)

let suite =
  [
    Alcotest.test_case "instance invariants" `Quick test_instance_invariants;
    Alcotest.test_case "interconnect delays positive" `Quick test_interconnect_delay_positive;
    Alcotest.test_case "area accounting consistent" `Quick test_area_accounting_consistent;
    Alcotest.test_case "min-area and lac legal" `Quick test_minarea_and_lac_legal;
    Alcotest.test_case "lac never worse on violations" `Quick test_lac_never_worse_on_violations;
    Alcotest.test_case "lac alpha validation" `Quick test_lac_alpha_validation;
    Alcotest.test_case "io latency preserved" `Quick test_io_latency_preserved;
    Alcotest.test_case "plan end to end" `Slow test_plan_end_to_end;
    Alcotest.test_case "plan deterministic" `Slow test_plan_deterministic;
    Alcotest.test_case "s27 plan" `Quick test_s27_plan;
    Alcotest.test_case "pinned lac outcome s27" `Quick test_pinned_s27;
    Alcotest.test_case "pinned lac outcome s386" `Slow test_pinned_s386;
    Alcotest.test_case "lac stop reasons traced" `Slow test_lac_stop_reasons;
    Alcotest.test_case "min-area outcome is lac round 0" `Slow test_minarea_is_round_zero;
    Alcotest.test_case "s1423 stream backend pin" `Slow test_s1423_stream_pin;
    Alcotest.test_case "report row and table" `Slow test_report_row_and_table;
    Alcotest.test_case "figures render" `Quick test_figures_render;
  ]

let test_table1_shape_invariants () =
  (* Loose golden test: on two small suite circuits, LAC never loses
     to min-area and both meet the target period. *)
  List.iter
    (fun name ->
      let netlist = Option.get (Suite.by_name name) in
      match Planner.plan_checked ~second_iteration:false netlist with
      | Error e -> Alcotest.failf "%s: %s" name (Planner.error_message e)
      | Ok run ->
        check (name ^ ": lac <= minarea") true
          (run.Planner.lac.Lac.n_foa <= run.Planner.minarea.Lac.n_foa);
        check (name ^ ": nfn within nf") true
          (run.Planner.lac.Lac.n_fn <= run.Planner.lac.Lac.n_f))
    [ "s386"; "s400" ]

let suite =
  suite
  @ [
      Alcotest.test_case "table1 shape invariants" `Slow test_table1_shape_invariants;
    ]

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let found = ref false in
  for i = 0 to nh - nn do
    if String.sub haystack i nn = needle then found := true
  done;
  !found

(* A squeezed floorplan (the capacity-stress shape) leaves the LAC run
   with violations, so the second-iteration growth table is non-empty
   and its contract can be checked directly. *)
let stressed_run () =
  let config =
    {
      Config.default with
      Config.hard_block_every = 3;
      block_area_inflation = 1.2;
      channel_density = 0.5;
      hard_sites_per_cell = 0.5;
    }
  in
  match Planner.plan_checked ~config ~second_iteration:false (small_circuit ()) with
  | Ok run -> run
  | Error e -> Alcotest.failf "stressed plan: %s" (Planner.error_message e)

let test_growth_table_order_independent () =
  let run = stressed_run () in
  let inst = run.Planner.instance in
  (* The min-area outcome has the most violations, so it exercises the
     table hardest. *)
  let table = Planner.growth_table inst run.Planner.minarea in
  let names = List.map fst table in
  (* Name-sorted with no duplicates: max-merge collapsed every violated
     tile of a block into one entry, so the table cannot depend on the
     order violations were reported in. *)
  check "table sorted and duplicate-free" true
    (List.sort_uniq String.compare names = names);
  List.iter (fun (_, factor) -> check "factor positive" true (factor > 0.0)) table;
  (* Deterministic: a second evaluation is identical. *)
  check "re-evaluation identical" true (Planner.growth_table inst run.Planner.minarea = table);
  (* growth_for is the table plus a zero default. *)
  List.iter
    (fun (name, factor) ->
      check (name ^ " growth_for agrees") true
        (Planner.growth_for inst run.Planner.minarea name = factor))
    table;
  check "unknown block grows by zero" true
    (Planner.growth_for inst run.Planner.minarea "no-such-block" = 0.0)

let test_repeater_saturated_tile_zero_capacity () =
  (* Direct C(t) = 0 check: a two-vertex cycle carrying two flip-flops,
     both vertices in one tile whose remaining capacity was eaten
     entirely by repeaters.  Retiming conserves the cycle's registers,
     so no labelling is violation-free. *)
  let g =
    Graph.create
      ~delays:[| 1.0; 1.0; 0.0 |]
      ~edges:[ { Graph.src = 0; dst = 1; weight = 1 }; { Graph.src = 1; dst = 0; weight = 1 } ]
      ~host:2
  in
  let problem capacity =
    {
      Lacr_core.Problem.graph = g;
      vertex_tile = [| 0; 0; -1 |];
      n_tiles = 1;
      capacity = [| capacity |];
      ff_area = 1.0;
      interconnect = [| false; false; false |];
    }
  in
  let labels = [| 0; 0; 0 |] in
  check_int "saturated tile counts every ff" 2
    (Lacr_core.Problem.violations (problem 0.0) ~labels);
  (* Over-subscription (negative remaining capacity) clamps to zero
     rather than double-charging. *)
  check_int "negative capacity clamps" 2
    (Lacr_core.Problem.violations (problem (-3.5)) ~labels);
  check_int "roomy tile has none" 0 (Lacr_core.Problem.violations (problem 2.0) ~labels);
  (* The re-weighting loop must stay finite on the zero-capacity ratio
     (capacity floor) and return the best labelling it saw. *)
  let p = problem 0.0 in
  let wd = Paths.compute g in
  let cs = Constraints.generate g wd ~period:10.0 in
  match Lac.retime_problem ~n_max:2 ~max_wr:5 p cs with
  | Error msg -> Alcotest.failf "retime on saturated tile: %s" msg
  | Ok { Lac.lac = outcome; _ } ->
    check_int "both ffs remain violations" 2 outcome.Lac.n_foa;
    check_int "cycle registers conserved" 2 outcome.Lac.n_f;
    check "terminated within max_wr" true (outcome.Lac.n_wr <= 5)

let test_second_error_surfaced_in_report () =
  match Planner.plan_checked ~second_iteration:false (small_circuit ()) with
  | Error e -> Alcotest.failf "plan: %s" (Planner.error_message e)
  | Ok run ->
    let failed = { run with Planner.second = Some (Error "expansion build failed") } in
    let row = Report.row_of_run ~name:"small" failed in
    (match row.Report.second_error with
    | Some msg -> check "message recorded" true (msg = "expansion build failed")
    | None -> Alcotest.fail "second_error not recorded in row");
    check "no second foa column" true (row.Report.lac_n_foa_second = None);
    let table = Report.render_table1 [ row ] in
    check "note rendered" true (contains table "second iteration failed");
    check "message rendered" true (contains table "expansion build failed");
    (* The CSV projection carries the same field. *)
    check "csv carries message" true
      (List.mem "expansion build failed" (Report.csv_row row))

let suite =
  suite
  @ [
      Alcotest.test_case "growth table order independent" `Slow test_growth_table_order_independent;
      Alcotest.test_case "repeater-saturated tile C(t)=0" `Quick
        test_repeater_saturated_tile_zero_capacity;
      Alcotest.test_case "second-iteration error surfaced" `Slow test_second_error_surfaced_in_report;
    ]

(* exec_seconds draws from the observability context's clock, the
   planner's one clock-injection point, so reported durations are
   testable. *)
let clock_problem () =
  let g =
    Graph.create
      ~delays:[| 1.0; 1.0; 0.0 |]
      ~edges:[ { Graph.src = 0; dst = 1; weight = 1 }; { Graph.src = 1; dst = 0; weight = 1 } ]
      ~host:2
  in
  let p =
    {
      Lacr_core.Problem.graph = g;
      vertex_tile = [| 0; 0; -1 |];
      n_tiles = 1;
      capacity = [| 4.0 |];
      ff_area = 1.0;
      interconnect = [| false; false; false |];
    }
  in
  let wd = Paths.compute g in
  (p, Constraints.generate g wd ~period:10.0)

let test_injected_clock () =
  let p, cs = clock_problem () in
  let timed clock =
    match Lac.retime_problem ~obs:(Lacr_obs.Trace.create ~clock ()) p cs with
    | Ok { Lac.minarea; lac } -> (minarea.Lac.exec_seconds, lac.Lac.exec_seconds)
    | Error msg -> Alcotest.failf "retime: %s" msg
  in
  (* A frozen clock reports exactly zero elapsed time. *)
  check "frozen clock" true (timed (fun () -> 42.0) = (0.0, 0.0));
  (* A stepping clock is visible in exec_seconds, deterministically;
     round 0 ends before the whole run does. *)
  let stepping () =
    let t = ref 0.0 in
    fun () ->
      t := !t +. 0.25;
      !t
  in
  let minarea, lac = timed (stepping ()) in
  check "stepping clock measured, min-area" true (minarea > 0.0);
  check "stepping clock measured, lac" true (lac >= minarea);
  check "injected timing deterministic" true (timed (stepping ()) = (minarea, lac))

let test_growth_table_sorted_by_name () =
  let run = stressed_run () in
  let inst = run.Planner.instance in
  let table = Planner.growth_table inst run.Planner.minarea in
  check "non-empty under stress" true (table <> []);
  (* Pinned contract: ascending block-name order, exactly. *)
  check "sorted by block name" true
    (List.sort (fun (a, _) (b, _) -> String.compare a b) table = table)

let suite =
  suite
  @ [
      Alcotest.test_case "injected clock drives exec_seconds" `Quick test_injected_clock;
      Alcotest.test_case "growth table sorted by name" `Slow test_growth_table_sorted_by_name;
      Alcotest.test_case "default plan matches dense plan" `Slow test_default_plan_matches_dense;
    ]

(* What a plan keeps alive: s953's run, both planning iterations,
   reaches at most 90 000 words.  A change that makes an instance keep
   more (per-net routes, adjacency lists, a second sequential view)
   fails here instead of on the benchmark's peak-RSS bound, which
   grows with every run the ladder keeps. *)
let test_retained_words () =
  match Planner.plan_checked (Option.get (Suite.by_name "s953")) with
  | Error err -> Alcotest.fail (Planner.error_message err)
  | Ok run ->
    check "second iteration ran" true (Option.is_some run.Planner.second);
    let words = Obj.reachable_words (Obj.repr run) in
    if words > 90_000 then Alcotest.failf "s953 run reaches %d words (at most 90000)" words

let suite =
  suite @ [ Alcotest.test_case "s953 run retains at most 90000 words" `Quick test_retained_words ]

(* The min-period search's window, read off a traced plan: s526's
   frontier is closed over its pinned I/O, so the search sees 183
   candidate periods (39 103 over the unclosed bound), and the
   [paths.compute] and [feasibility.min_period] spans carry the bound
   and the window. *)
let test_min_period_window_counters () =
  let module Obs = Lacr_obs.Trace in
  let obs = Obs.create () in
  match
    Planner.plan_checked ~second_iteration:false ~trace:obs (Option.get (Suite.by_name "s526"))
  with
  | Error err -> Alcotest.fail (Planner.error_message err)
  | Ok run ->
    let counter name = Option.value (List.assoc_opt name (Obs.counter_totals obs)) ~default:0 in
    check_int "feasibility.candidates" 183 (counter "feasibility.candidates");
    let probes = counter "feasibility.probes" in
    check "about log2 candidates probes" true (probes >= 8 && probes <= 10);
    let attrs name =
      List.concat_map snd (Obs.events obs)
      |> List.filter (fun e -> String.equal e.Obs.ev_name name)
      |> List.concat_map (fun e -> e.Obs.ev_attrs)
    in
    let paths = attrs "paths.compute" and search = attrs "feasibility.min_period" in
    check "bound attribute is T_min" true
      (match List.assoc_opt "bound" paths with
      | Some (Obs.Float b) -> Float.equal b run.Planner.t_min
      | _ -> false);
    check "pinned attribute" true
      (match List.assoc_opt "pinned" paths with Some (Obs.Int k) -> k > 0 | _ -> false);
    check "candidates attribute" true (List.assoc_opt "candidates" search = Some (Obs.Int 183));
    check "probes attribute" true (List.assoc_opt "probes" search = Some (Obs.Int probes))

let suite =
  suite
  @ [
      Alcotest.test_case "traced s526 plan counts the min-period window" `Quick
        test_min_period_window_counters;
    ]
