(* Benchmark harness: the ablations and scale rungs that no other entry
   point runs.  The paper's own artefacts come from the CLI: Table 1
   with its second-iteration and flip-flops-in-interconnect summaries
   (E1-E3) from `lacr table1`, the alpha sweep (E4) from `lacr alpha`
   and the figures (F1/F2) from `lacr figures`.

   Sections (--only S,U,E,A,B; default: all)
     S      streamed path engine at scale: the hierarchical family
     U      end-to-end plan of hier:300000 (full mode only)
     E      E5 run-time: LAC vs min-area, constraint pruning on/off
     A      A1 N_max ablation, A2 tile-granularity ablation, A3
            heuristic vs exact LAC on tiny instances (the exact solver
            is the test-only Lacr_oracle.Exact)
     B      bechamel micro-benchmarks of the kernels

   Absolute numbers depend on the synthetic technology model; the
   reproduction targets are the shapes (see EXPERIMENTS.md).
   Set LACR_BENCH_FAST=1 to restrict to the smaller circuits. *)

module Planner = Lacr_core.Planner
module Config = Lacr_core.Config
module Build = Lacr_core.Build
module Lac = Lacr_core.Lac
module Suite = Lacr_circuits.Suite
module Synth = Lacr_circuits.Synth
module Graph = Lacr_retime.Graph
module Paths = Lacr_retime.Paths
module Feasibility = Lacr_retime.Feasibility
module Constraints = Lacr_retime.Constraints
module Min_area = Lacr_retime.Min_area
module Trace = Lacr_obs.Trace
module Jsonx = Lacr_obs.Jsonx
module Pool = Lacr_util.Pool

let section title =
  Printf.printf "\n%s\n%s\n%s\n\n%!" (String.make 78 '=') title (String.make 78 '=')

(* The wall clock the planner reads when it is not tracing. *)
let now = Trace.clock_of Trace.disabled

let timed f =
  let t0 = now () in
  let result = f () in
  (result, now () -. t0)

let fast_mode =
  match Sys.getenv_opt "LACR_BENCH_FAST" with Some ("1" | "true") -> true | _ -> false

let section_names = [ "S"; "U"; "E"; "A"; "B" ]

(* --only S,E,... restricts the run to the named sections (default:
   everything).  An unknown name exits 2 before any work, so a stale
   section list cannot pass by running nothing. *)
let only_sections =
  let only = ref None in
  Array.iteri
    (fun i arg ->
      if arg = "--only" && i + 1 < Array.length Sys.argv then
        only := Some (String.split_on_char ',' Sys.argv.(i + 1)))
    Sys.argv;
  (match !only with
   | Some names -> (
     match List.find_opt (fun name -> not (List.mem name section_names)) names with
     | Some name ->
       Printf.eprintf "bench: unknown section %S in --only (valid: %s)\n%!" name
         (String.concat "," section_names);
       exit 2
     | None -> ())
   | None -> ());
  !only

let want section =
  match only_sections with None -> true | Some names -> List.mem section names

(* --- machine-readable timing log (--json FILE) ---

   Schema 6: FILE holds {schema: 6, timings: [...], scale: [...]}.
   [timings] are section E's {name, circuit, domains, ms} objects;
   [scale] records the large-family runs of sections S and U as
   {circuit, units, vertices, stage, domains, ms, minor_words,
   major_words, top_heap_words, peak_rss_kb, pairs} — one row per
   pipeline stage per scale rung, so BENCH_*.json carries the memory
   trajectory (peak RSS and Gc heap words) and the minor-heap
   allocation pressure of the streamed path engine alongside wall
   time.  Rows are {!Jsonx} values: integral numbers print without a
   fraction, all others with six decimals. *)

let json_path =
  let path = ref None in
  Array.iteri
    (fun i arg -> if arg = "--json" && i + 1 < Array.length Sys.argv then path := Some Sys.argv.(i + 1))
    Sys.argv;
  (* Fail fast on an unwritable path rather than losing a full bench run
     to a Sys_error at write-out time. *)
  (match !path with
   | Some p ->
     (try close_out (open_out p)
      with Sys_error msg ->
        Printf.eprintf "bench: cannot write --json file: %s\n%!" msg;
        exit 2)
   | None -> ());
  !path

(* The log's two arrays, newest row first. *)
let timings = ref []
let scale_rows = ref []

let log rows fields = rows := Jsonx.Obj fields :: !rows

let log_timing ~name ~circuit ~domains seconds =
  log timings
    [
      ("name", Jsonx.Str name);
      ("circuit", Jsonx.Str circuit);
      ("domains", Jsonx.of_int domains);
      ("ms", Jsonx.Num (1000.0 *. seconds));
    ]

(* Peak resident set size of this process, from the kernel's
   high-water mark; 0 when /proc is missing (outside Linux).  Unlike
   Gc counters this also sees the graph, floorplan and router
   structures, which is the honest denominator for a "fits in memory"
   claim. *)
let vm_hwm_kb () =
  let key = "VmHWM:" in
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let kb = ref 0 in
    let k = String.length key in
    (try
       while true do
         let line = input_line ic in
         if String.starts_with ~prefix:key line then
           Scanf.sscanf (String.sub line k (String.length line - k)) " %d" (fun v -> kb := v)
       done
     with End_of_file | Scanf.Scan_failure _ | Failure _ -> ());
    close_in ic;
    !kb

let write_json path =
  let rows r = Jsonx.Arr (List.rev !r) in
  Jsonx.write_file path
    (Jsonx.Obj [ ("schema", Jsonx.of_int 6); ("timings", rows timings); ("scale", rows scale_rows) ]);
  Printf.printf "\nwrote timing log: %s (%d timings, %d scale rows)\n" path
    (List.length !timings) (List.length !scale_rows)

(* A built suite circuit, default config. *)
let instance name =
  match Build.build (Option.get (Suite.by_name name)) with
  | Ok inst -> inst
  | Error msg -> failwith (name ^ ": " ^ msg)

(* --- S/U: the hier: scale rungs --- *)

let scale_header () =
  Printf.printf "%-12s %-20s %10s %10s %10s %10s %9s %12s\n" "circuit" "stage" "ms" "minor(Mw)"
    "major(Mw)" "heap(Mw)" "rss(MB)" "pairs"

(* One scale rung: build hier:UNITS on a 4-domain pool, then run the
   planner's set-up stages and one LAC solve one at a time, so each
   gets its own bracket — wall time, minor/major words allocated, the
   major heap's high-water mark and the process peak RSS — printed
   and logged as a [scale] row named [prefix ^ stage].  [pairs] is the
   number of (W,D) pairs the streamed frontier retained.  Returns the
   vertex count, the constraint count and N_FOA. *)
let scale_rung ?(prefix = "") units =
  let domains = 4 in
  let name = Printf.sprintf "hier:%d" units in
  let netlist = Synth.generate_hier (Synth.hier_spec ~units name) in
  Pool.with_pool ~size:domains (fun pool ->
      let vertices = ref 0 in
      let stage label ?(pairs_of = fun _ -> 0) f =
        let g0 = Gc.quick_stat () in
        let r, dt = timed f in
        let g1 = Gc.quick_stat () in
        let minor = g1.Gc.minor_words -. g0.Gc.minor_words in
        let major = g1.Gc.major_words -. g0.Gc.major_words in
        let top_heap = float_of_int g1.Gc.top_heap_words in
        let rss_kb = vm_hwm_kb () and pairs = pairs_of r in
        log scale_rows
          [
            ("circuit", Jsonx.Str name);
            ("units", Jsonx.of_int units);
            ("vertices", Jsonx.of_int !vertices);
            ("stage", Jsonx.Str (prefix ^ label));
            ("domains", Jsonx.of_int domains);
            ("ms", Jsonx.Num (1000.0 *. dt));
            ("minor_words", Jsonx.Num minor);
            ("major_words", Jsonx.Num major);
            ("top_heap_words", Jsonx.Num top_heap);
            ("peak_rss_kb", Jsonx.of_int rss_kb);
            ("pairs", Jsonx.of_int pairs);
          ];
        Printf.printf "%-12s %-20s %10.1f %10.1f %10.1f %10.1f %9.1f %12d\n%!" name label
          (1000.0 *. dt) (minor /. 1e6) (major /. 1e6) (top_heap /. 1e6)
          (float_of_int rss_kb /. 1024.0)
          pairs;
        r
      in
      let inst =
        stage "build" (fun () ->
            match Build.build ~pool netlist with
            | Ok inst ->
              vertices := Graph.num_vertices inst.Build.graph;
              inst
            | Error msg -> failwith (name ^ ": " ^ msg))
      in
      let g = inst.Build.graph and extra = inst.Build.pin_constraints in
      let wd =
        stage "paths.compute"
          ~pairs_of:(function
            | Paths.Streamed fr -> Array.length fr.Paths.fdst
            | Paths.Dense _ -> 0)
          (fun () -> Paths.compute ~pool ~extra g)
      in
      let mp = stage "min_period" (fun () -> Feasibility.min_period ~extra g wd) in
      let t_clk =
        Config.t_clk Config.default ~t_init:(Graph.clock_period g) ~t_min:mp.Feasibility.period
      in
      let cs =
        stage "constraints.generate" (fun () ->
            Constraints.generate ~prune:true ~extra ~pool g wd ~period:t_clk)
      in
      let n_foa =
        stage "lac.retime" (fun () ->
            match Lac.retime ~pool inst cs with
            | Ok o -> o.Lac.lac.Lac.n_foa
            | Error msg -> failwith (name ^ ": lac: " ^ msg))
      in
      (!vertices, cs.Constraints.system.Constraints.m, n_foa))

let run_scale () =
  section "S   streamed path engine at scale: the hierarchical family";
  scale_header ();
  List.iter
    (fun units -> ignore (scale_rung units))
    (if fast_mode then [ 5_000 ] else [ 20_000; 100_000 ]);
  Printf.printf
    "\n(per-stage wall time, minor- and major-heap allocation (Mwords), max major\n\
     heap so far (Mwords), process peak RSS (VmHWM), and the (W,D) pairs the\n\
     streamed frontier retained)\n"

let run_scale_u () =
  section "U   end-to-end plan of hier:300000 (full mode only)";
  (* The axis the flat pipeline opens: an end-to-end plan three times
     past the 10^5 rung, streamed backend, flat constraints all the
     way into the LAC loop.  Fast mode skips it (minutes of work). *)
  if fast_mode then print_endline "(skipped in fast mode)"
  else begin
    let units = 300_000 in
    print_newline ();
    scale_header ();
    let n, m, n_foa = scale_rung ~prefix:"u." units in
    Printf.printf "\nhier:%d planned end-to-end: %d vertices, %d constraints, N_FOA = %d\n" units n
      m n_foa
  end

(* --- E5: run time --- *)

let run_runtime () =
  section "E5  Run time: LAC vs min-area; constraint pruning ablation";
  let names = if fast_mode then [ "s298"; "s386" ] else [ "s298"; "s386"; "s400"; "s526" ] in
  Printf.printf "%-8s %12s %12s %8s %14s %14s\n" "circuit" "min-area(s)" "LAC(s)" "N_wr"
    "constraints" "pruned";
  List.iter
    (fun name ->
      let inst = instance name in
      let _, _, _, cs_pruned = Planner.retiming_setup inst in
      let _, _, _, cs_full =
        Planner.retiming_setup
          { inst with Build.config = { inst.Build.config with Config.prune_constraints = false } }
      in
      match Lac.retime inst cs_pruned with
      | Ok { Lac.minarea = ma; lac } ->
        log_timing ~name:"min-area" ~circuit:name ~domains:1 ma.Lac.exec_seconds;
        log_timing ~name:"lac-retime" ~circuit:name ~domains:1 lac.Lac.exec_seconds;
        Printf.printf "%-8s %12.2f %12.2f %8d %14d %14d\n%!" name ma.Lac.exec_seconds
          lac.Lac.exec_seconds lac.Lac.n_wr cs_full.Constraints.system.Constraints.m
          cs_pruned.Constraints.system.Constraints.m
      | Error msg -> Printf.printf "%-8s failed: %s\n" name msg)
    names;
  Printf.printf
    "\n(min-area(s) is LAC's round 0, flow-network compile included; the\n\
     paper's claim: LAC run time is the same order as one min-area\n\
     retiming because the clocking constraints are generated once)\n"

(* --- A1: N_max ablation --- *)

let run_nmax_ablation () =
  section "A1  N_max ablation on s526 (non-improving rounds before stopping)";
  let inst = instance "s526" in
  let _, _, _, cs = Planner.retiming_setup inst in
  Printf.printf "%8s %8s %8s %10s\n" "N_max" "N_FOA" "N_wr" "time(s)";
  List.iter
    (fun n_max ->
      match timed (fun () -> Lac.retime ~n_max inst cs) with
      | Ok { Lac.lac = o; _ }, dt ->
        Printf.printf "%8d %8d %8d %10.2f\n%!" n_max o.Lac.n_foa o.Lac.n_wr dt
      | Error msg, _ -> Printf.printf "%8d failed: %s\n" n_max msg)
    [ 1; 3; 5; 10 ]

(* --- A2: tile granularity --- *)

let run_grid_ablation () =
  section "A2  Tile-granularity ablation on s400";
  let netlist = Option.get (Suite.by_name "s400") in
  Printf.printf "%8s %10s %10s %10s %10s\n" "grid" "tiles" "MA N_FOA" "LAC N_FOA" "time(s)";
  List.iter
    (fun grid ->
      let config = { Config.default with Config.grid } in
      match timed (fun () -> Planner.plan_checked ~config ~second_iteration:false netlist) with
      | Ok run, dt ->
        Printf.printf "%8d %10d %10d %10d %10.1f\n%!" grid
          (Lacr_tilegraph.Tilegraph.num_tiles run.Planner.instance.Build.tilegraph)
          run.Planner.minarea.Lac.n_foa run.Planner.lac.Lac.n_foa dt
      | Error e, _ -> Printf.printf "%8d failed: %s\n" grid (Planner.error_message e))
    (if fast_mode then [ 8; 12 ] else [ 8; 10; 12; 16 ])

(* --- A3: heuristic vs exact on tiny instances --- *)

let run_exact_gap () =
  section "A3  Heuristic vs exact LAC-retiming on tiny instances (optimality gap)";
  let rng = Lacr_util.Rng.create 4242 in
  let n_trials = 40 in
  let optimal = ref 0 and total_gap = ref 0 and solved = ref 0 in
  for _trial = 1 to n_trials do
    (* Tiny ring-with-chords problems, the test suite's generator
       shape. *)
    let n = 4 + Lacr_util.Rng.int rng 2 in
    let delays =
      Array.init n (fun v -> if v = 0 then 0.0 else float_of_int (1 + Lacr_util.Rng.int rng 4))
    in
    let ring =
      List.init n (fun v ->
          { Lacr_retime.Graph.src = v; dst = (v + 1) mod n; weight = 1 })
    in
    let chords = ref [] in
    for _c = 1 to Lacr_util.Rng.int rng n do
      let src = Lacr_util.Rng.int rng n and dst = Lacr_util.Rng.int rng n in
      if src <> dst then chords := { Lacr_retime.Graph.src; dst; weight = 1 } :: !chords
    done;
    let g = Lacr_retime.Graph.create ~delays ~edges:(ring @ !chords) ~host:0 in
    let n_tiles = 2 + Lacr_util.Rng.int rng 2 in
    let problem =
      {
        Lacr_core.Problem.graph = g;
        vertex_tile = Array.init n (fun v -> if v = 0 then -1 else Lacr_util.Rng.int rng n_tiles);
        n_tiles;
        capacity = Array.init n_tiles (fun _ -> float_of_int (Lacr_util.Rng.int rng 3));
        ff_area = 1.0;
        interconnect = Array.make n false;
      }
    in
    let wd = Paths.compute g in
    let mp = Feasibility.min_period g wd in
    let cs =
      Constraints.generate ~prune:true g wd
        ~period:(mp.Feasibility.period +. (float_of_int (Lacr_util.Rng.int rng 3) /. 2.0))
    in
    match (Lacr_oracle.Exact.solve ~range:6 problem cs, Lac.retime_problem problem cs) with
    | Some exact, Ok { Lac.lac = heuristic; _ } ->
      incr solved;
      let gap = heuristic.Lac.n_foa - exact.Lacr_oracle.Exact.n_foa in
      total_gap := !total_gap + gap;
      if gap = 0 then incr optimal
    | _ -> ()
  done;
  Printf.printf
    "tiny instances solved exactly: %d; heuristic optimal on %d (%.0f%%), total violation gap %d\n"
    !solved !optimal
    (100.0 *. float_of_int !optimal /. float_of_int (max 1 !solved))
    !total_gap

(* --- B: bechamel micro-benchmarks --- *)

let run_bechamel () =
  section "B   Bechamel micro-benchmarks of the planner kernels (s298-sized)";
  let open Bechamel in
  let inst = instance "s298" in
  let _, _, t_clk, cs = Planner.retiming_setup inst in
  let g = inst.Build.graph and extra = inst.Build.pin_constraints in
  let wd = Paths.compute ~extra g in
  let area = Array.make (Graph.num_vertices g) 1.0 in
  let tests =
    [
      Test.make ~name:"wd-matrices" (Staged.stage (fun () -> ignore (Paths.compute ~extra g)));
      Test.make ~name:"constraint-gen-pruned"
        (Staged.stage (fun () ->
             ignore (Constraints.generate ~prune:true ~extra g wd ~period:t_clk)));
      Test.make ~name:"feasibility-probe"
        (Staged.stage (fun () -> ignore (Feasibility.feasible ~extra g wd ~period:t_clk)));
      Test.make ~name:"weighted-min-area"
        (Staged.stage (fun () -> ignore (Min_area.solve_weighted g cs ~area)));
      Test.make ~name:"clock-period" (Staged.stage (fun () -> ignore (Graph.clock_period g)));
      Test.make ~name:"cycle-ratio-bound"
        (Staged.stage (fun () -> ignore (Paths.cycle_ratio_lower_bound ~extra g)));
    ]
  in
  let results =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun test ->
        let instances = Toolkit.Instance.[ monotonic_clock ] in
        let cfg = Benchmark.cfg ~limit:100 ~quota:(Time.second 0.8) () in
        Hashtbl.iter (fun k v -> Hashtbl.replace tbl k v) (Benchmark.all cfg instances test))
      tests;
    tbl
  in
  let ols =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Toolkit.Instance.monotonic_clock results
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | Some _ | None -> rows := (name, nan) :: !rows)
    ols;
  List.iter
    (fun (name, est) ->
      if Float.is_nan est then Printf.printf "  %-28s (no estimate)\n" name
      else if est > 1.0e6 then Printf.printf "  %-28s %10.2f ms/run\n" name (est /. 1.0e6)
      else Printf.printf "  %-28s %10.2f us/run\n" name (est /. 1.0e3))
    (List.sort compare !rows)

let () =
  Printf.printf "LAC-retiming benchmark harness (fast mode: %b)\n" fast_mode;
  if want "S" then run_scale ();
  if want "U" then run_scale_u ();
  if want "E" then run_runtime ();
  if want "A" then run_nmax_ablation ();
  if want "A" then run_grid_ablation ();
  if want "A" then run_exact_gap ();
  if want "B" then run_bechamel ();
  (match json_path with Some path -> write_json path | None -> ());
  print_newline ()
