(* Benchmark harness: regenerates every table and figure of the paper
   plus the ablations called out in DESIGN.md.

   Sections
     P      dense (W,D) matrices: sequential vs domain pool
     S      streamed path engine at scale: the 10^5-unit hierarchical family
     U      end-to-end plan of hier:300000 (full mode only)
     Q      warm-started MCMF engine vs per-round cold compiles
     R      global router: A* engine, sequential vs domain pool
     T      observability: traced per-stage breakdown, trace-off guard
     E1/E2  Table 1 (min-area vs LAC-retiming, second iteration)
     E3     flip-flops-in-interconnect summary (paper 5)
     E4     alpha ablation (paper 4.2: alpha ~ 0.2 best)
     E5     run-time: LAC vs min-area, constraint pruning on/off
     A1     N_max ablation
     A2     tile-granularity ablation
     A3     heuristic vs exact LAC on tiny instances (the exact solver
            is the test-only Lacr_oracle.Exact)
     F1/F2  ASCII figures
     B      bechamel micro-benchmarks of the kernels

   Absolute numbers depend on the synthetic technology model; the
   reproduction targets are the shapes (see EXPERIMENTS.md).
   Set LACR_BENCH_FAST=1 to restrict to the smaller circuits. *)

module Planner = Lacr_core.Planner
module Report = Lacr_core.Report
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
module Gr = Lacr_routing.Global_router
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

(* --only P,S,... restricts the run to the named sections (default:
   everything).  The scale section in particular is worth running on
   its own: `bench --only S --json FILE`. *)
let only_sections =
  let only = ref None in
  Array.iteri
    (fun i arg ->
      if arg = "--only" && i + 1 < Array.length Sys.argv then
        only := Some (String.split_on_char ',' Sys.argv.(i + 1)))
    Sys.argv;
  !only

let want section =
  match only_sections with None -> true | Some names -> List.mem section names

(* --- machine-readable timing log (--json FILE) ---

   Schema 5: FILE holds {schema: 5, timings: [...], stages: [...],
   router: [...], scale: [...]}.  [timings] keeps the schema-1 {name,
   circuit, domains, ms} objects; [stages] adds the per-stage
   breakdown of a traced planning run ({name, circuit, depth, count,
   ms} per pipeline span); [router] (schema 3) records section R's
   global-router runs as {circuit, engine, domains, ms, wirelength,
   overflow}; [scale] records the large-family runs of sections S and
   U as {circuit, units, vertices, stage, mode, domains, ms,
   minor_words, major_words, top_heap_words, peak_rss_kb, pairs} —
   one row per pipeline stage per scale rung, so BENCH_*.json carries
   the memory trajectory (peak RSS and Gc heap words) and the minor-heap
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

(* The log's four arrays, newest row first. *)
let timings = ref []
let stages = ref []
let router_rows = ref []
let scale_rows = ref []

let log rows fields = rows := Jsonx.Obj fields :: !rows

let log_timing ?solver ~name ~circuit ~domains seconds =
  log timings
    ([
       ("name", Jsonx.Str name);
       ("circuit", Jsonx.Str circuit);
       ("domains", Jsonx.of_int domains);
       ("ms", Jsonx.Num (1000.0 *. seconds));
     ]
    @ Option.to_list (Option.map (fun s -> ("solver", s)) solver))

(* One global-router measurement of section R. *)
let log_router ~circuit ~domains (r : Gr.result) seconds =
  log router_rows
    [
      ("circuit", Jsonx.Str circuit);
      ("engine", Jsonx.Str "astar");
      ("domains", Jsonx.of_int domains);
      ("ms", Jsonx.Num (1000.0 *. seconds));
      ("wirelength", Jsonx.Num r.Gr.total_wirelength);
      ("overflow", Jsonx.Num r.Gr.overflow);
    ]

(* The integer after [key] on the matching line of a /proc file of
   "Key:  value kB" lines; 0 when the file or the line is missing
   (outside Linux). *)
let proc_kb file key =
  match open_in file with
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

(* Peak resident set size of this process, from the kernel's
   high-water mark.  Unlike Gc counters this also sees the graph,
   floorplan and router structures, which is the honest denominator
   for a "fits in memory" claim. *)
let vm_hwm_kb () = proc_kb "/proc/self/status" "VmHWM:"

let write_json path =
  let rows r = Jsonx.Arr (List.rev !r) in
  Jsonx.write_file path
    (Jsonx.Obj
       [
         ("schema", Jsonx.of_int 5);
         ("timings", rows timings);
         ("stages", rows stages);
         ("router", rows router_rows);
         ("scale", rows scale_rows);
       ]);
  Printf.printf "\nwrote timing log: %s (%d timings, %d stages, %d router rows, %d scale rows)\n"
    path (List.length !timings) (List.length !stages) (List.length !router_rows)
    (List.length !scale_rows)

let table1_circuits () =
  let all = Suite.table1 () in
  if fast_mode then List.filteri (fun i _ -> i < 4) all else all

(* A medium circuit reused by the ablations and micro-benchmarks. *)
let ablation_instance () =
  let netlist = Option.get (Suite.by_name "s526") in
  match Build.build netlist with
  | Ok inst -> inst
  | Error msg -> failwith msg

(* --- P: dense (W,D) matrices --- *)

let retime_graph_of name =
  let netlist = Option.get (Suite.by_name name) in
  match Lacr_netlist.Seqview.of_netlist netlist with
  | Ok view -> Graph.of_seqview view
  | Error msg -> failwith msg

let wd_equal (a : Paths.wd) (b : Paths.wd) =
  match (a, b) with
  | Paths.Dense a, Paths.Dense b -> a.Paths.w = b.Paths.w && a.Paths.d = b.Paths.d
  | Paths.Streamed a, Paths.Streamed b ->
    a.Paths.row_off = b.Paths.row_off
    && a.Paths.fdst = b.Paths.fdst
    && a.Paths.fwgt = b.Paths.fwgt
    && a.Paths.fdly = b.Paths.fdly
  | _ -> false

let best_of_runs reps f =
  let best = ref infinity in
  let result = ref None in
  for _rep = 1 to reps do
    let r, dt = timed f in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

let run_wd_scaling () =
  section "P   dense (W,D) matrices: sequential vs domain pool";
  let circuits = if fast_mode then [ "s526" ] else [ "s526"; "s953"; "s1423" ] in
  let reps = if fast_mode then 3 else 5 in
  let domain_counts = [ 2; 4 ] in
  Printf.printf "%-8s %6s %6s | %10s %s | %8s %10s\n" "circuit" "n" "edges" "csr(ms)"
    (String.concat " " (List.map (fun d -> Printf.sprintf "%8s" (Printf.sprintf "%dd(ms)" d)) domain_counts))
    "par-spd" "identical";
  List.iter
    (fun name ->
      let g = retime_graph_of name in
      let n = Graph.num_vertices g and m = Graph.num_edges g in
      let seq_wd, seq_dt = best_of_runs reps (fun () -> Paths.compute ~mode:Paths.Mode.Dense g) in
      log_timing ~name:"wd-csr" ~circuit:name ~domains:1 seq_dt;
      let pool_results =
        List.map
          (fun domains ->
            Lacr_util.Pool.with_pool ~size:domains (fun pool ->
                let wd, dt =
                  best_of_runs reps (fun () -> Paths.compute ~mode:Paths.Mode.Dense ~pool g)
                in
                log_timing ~name:"wd-csr" ~circuit:name ~domains dt;
                (wd, dt)))
          domain_counts
      in
      let identical = List.for_all (fun (wd, _) -> wd_equal seq_wd wd) pool_results in
      let best_parallel = List.fold_left (fun acc (_, dt) -> min acc dt) seq_dt pool_results in
      Printf.printf "%-8s %6d %6d | %10.2f %s | %7.2fx %10s\n%!" name n m (1000.0 *. seq_dt)
        (String.concat " " (List.map (fun (_, dt) -> Printf.sprintf "%8.2f" (1000.0 *. dt)) pool_results))
        (seq_dt /. best_parallel)
        (if identical then "yes" else "NO!");
      if not identical then failwith (name ^ ": parallel (W,D) differs from sequential"))
    circuits;
  Printf.printf
    "\n(par-spd = sequential / best pooled time; 'identical' checks the w and d\n\
     matrices cell for cell across all pool sizes)\n"

(* --- S/U: the hier: scale rungs --- *)

let gib bytes = bytes /. (1024.0 *. 1024.0 *. 1024.0)

(* The constraint systems the two backends produce must agree term for
   term; section S re-checks it on the scale family the way P/Q/R
   check their engines (QCheck covers random circuits, the s1423 pin
   covers the suite). *)
let cs_equal (a : Constraints.t) (b : Constraints.t) =
  a.Constraints.period = b.Constraints.period && a.Constraints.system = b.Constraints.system

let scale_header () =
  Printf.printf "%-12s %-20s %-7s %10s %10s %10s %10s %9s %12s\n" "circuit" "stage" "mode" "ms"
    "minor(Mw)" "major(Mw)" "heap(Mw)" "rss(MB)" "pairs"

(* One scale rung: build hier:UNITS on a 4-domain pool, then run the
   planner's set-up stages and one LAC solve one at a time, so each
   gets its own bracket — wall time, minor/major words allocated, the
   major heap's high-water mark and the process peak RSS — printed
   and logged as a [scale] row named [prefix ^ stage].  [pairs] is the
   number of (W,D) pairs the paths stage retained: the streamed
   frontier size, or n^2 for the dense backend.  Returns the vertex
   count, T_min, the constraint system and N_FOA. *)
let scale_rung ?(prefix = "") ~mode units =
  let domains = 4 in
  let name = Printf.sprintf "hier:%d" units in
  let netlist = Synth.generate_hier (Synth.hier_spec ~units name) in
  let paths_mode = match mode with "dense" -> Paths.Mode.Dense | _ -> Paths.Mode.Stream in
  let config = { Config.default with Config.paths_mode } in
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
            ("mode", Jsonx.Str mode);
            ("domains", Jsonx.of_int domains);
            ("ms", Jsonx.Num (1000.0 *. dt));
            ("minor_words", Jsonx.Num minor);
            ("major_words", Jsonx.Num major);
            ("top_heap_words", Jsonx.Num top_heap);
            ("peak_rss_kb", Jsonx.of_int rss_kb);
            ("pairs", Jsonx.of_int pairs);
          ];
        Printf.printf "%-12s %-20s %-7s %10.1f %10.1f %10.1f %10.1f %9.1f %12d\n%!" name label mode
          (1000.0 *. dt) (minor /. 1e6) (major /. 1e6) (top_heap /. 1e6)
          (float_of_int rss_kb /. 1024.0)
          pairs;
        r
      in
      let inst =
        stage "build" (fun () ->
            match Build.build ~config ~pool netlist with
            | Ok inst ->
              vertices := Graph.num_vertices inst.Build.graph;
              inst
            | Error msg -> failwith (name ^ ": " ^ msg))
      in
      let g = inst.Build.graph and extra = inst.Build.pin_constraints in
      let n = !vertices in
      let wd =
        stage "paths.compute"
          ~pairs_of:(function
            | Paths.Dense _ -> n * n
            | Paths.Streamed fr -> Array.length fr.Paths.fdst)
          (fun () -> Paths.compute ~mode:paths_mode ~pool g)
      in
      let mp = stage "min_period" (fun () -> Feasibility.min_period ~extra g wd) in
      let t_min = mp.Feasibility.period in
      let t_clk = Config.t_clk config ~t_init:(Graph.clock_period g) ~t_min in
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
      (n, t_min, cs, n_foa))

let run_scale () =
  section "S   streamed path engine at scale: the 10^5-unit hierarchical family";
  (* Stream rungs ascending, dense comparison rung last, so each
     stream row's process-lifetime peak RSS is not polluted by the
     dense matrices. *)
  let stream_units = if fast_mode then [ 5_000 ] else [ 20_000; 100_000 ] in
  let compare_units = if fast_mode then 5_000 else 20_000 in
  scale_header ();
  let stream = List.map (fun units -> (units, scale_rung ~mode:"stream" units)) stream_units in
  let _, p_d, cs_d, _ = scale_rung ~mode:"dense" compare_units in
  (* Backend identity on the comparison rung. *)
  let _, p_s, cs_s, _ = List.assoc compare_units stream in
  let identical = p_s = p_d && cs_equal cs_s cs_d in
  Printf.printf "\nbackend identity at hier:%d: min period %s, constraint system %s\n"
    compare_units
    (if p_s = p_d then "identical" else "DIFFERS!")
    (if cs_equal cs_s cs_d then "identical" else "DIFFERS!");
  if not identical then failwith "scale: streamed backend differs from dense";
  (* The memory-wall arithmetic: what the dense matrices alone would
     cost at the largest stream rung, against this machine's RAM. *)
  let top_n, _, _, _ = List.assoc (List.fold_left max 0 stream_units) stream in
  let dense_bytes = 2.0 *. float_of_int top_n *. float_of_int top_n *. 8.0 in
  let ram_kb = proc_kb "/proc/meminfo" "MemTotal:" in
  Printf.printf
    "dense (W,D) at n=%d: 2 x n^2 x 8 = %.0f GiB of matrices alone%s\n" top_n
    (gib dense_bytes)
    (if ram_kb > 0 && dense_bytes > 1024.0 *. float_of_int ram_kb then
       Printf.sprintf " — exceeds this machine's %.0f GiB RAM; only the streamed backend \
                       plans this circuit" (gib (1024.0 *. float_of_int ram_kb))
     else "");
  Printf.printf
    "\n(per-stage wall time, major-heap allocation (Mwords), max major heap so far\n\
     (Mwords), process peak RSS (VmHWM), and retained (W,D) pairs: the streamed\n\
     frontier vs the dense n^2.  Stream rungs run before the dense comparison so\n\
     their RSS high-water marks are their own.)\n"

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
    let n, _, cs, n_foa = scale_rung ~prefix:"u." ~mode:"stream" units in
    Printf.printf "\nhier:%d planned end-to-end: %d vertices, %d constraints, N_FOA = %d\n" units n
      cs.Constraints.system.Constraints.m n_foa
  end

(* --- Q: warm-started successive-instance MCMF engine --- *)

(* The flow-solver counters of one LAC run for the timing log: the
   number of weighted retiming rounds plus the totals over every
   round's Mcmf.stats. *)
let solver_json (outcome : Lac.outcome) =
  let total f = Jsonx.of_int (List.fold_left (fun acc s -> acc + f s) 0 outcome.Lac.solver) in
  Jsonx.Obj
    [
      ("rounds", Jsonx.of_int (List.length outcome.Lac.solver));
      ("phases", total (fun s -> s.Lacr_mcmf.Mcmf.phases));
      ("settles", total (fun s -> s.Lacr_mcmf.Mcmf.settles));
      ("pushes", total (fun s -> s.Lacr_mcmf.Mcmf.pushes));
      ("warm_hits", total (fun s -> Bool.to_int s.Lacr_mcmf.Mcmf.warm_start));
    ]

let lac_outcome_equal (a : Lac.outcome) (b : Lac.outcome) =
  a.Lac.labels = b.Lac.labels && a.Lac.n_foa = b.Lac.n_foa && a.Lac.n_f = b.Lac.n_f
  && a.Lac.n_fn = b.Lac.n_fn && a.Lac.trace = b.Lac.trace

let run_warm_engine () =
  section "Q   warm-started MCMF engine: per-round cold compiles vs successive instances";
  let circuits = if fast_mode then [ "s526" ] else [ "s526"; "s953"; "s1423" ] in
  let reps = if fast_mode then 2 else 3 in
  Printf.printf "%-8s %6s | %10s %10s %10s | %8s %10s %10s\n" "circuit" "rounds" "cold(ms)"
    "warm(ms)" "warm2d(ms)" "speedup" "warm-hits" "identical";
  List.iter
    (fun name ->
      let netlist = Option.get (Suite.by_name name) in
      let inst = match Build.build netlist with Ok i -> i | Error msg -> failwith msg in
      let _, _, _, cs = Planner.retiming_setup inst in
      let run ?reuse ?pool () =
        match Lac.retime ?reuse ?pool inst cs with
        | Ok o -> o.Lac.lac
        | Error msg -> failwith (name ^ ": " ^ msg)
      in
      let cold, cold_dt = best_of_runs reps (fun () -> run ~reuse:false ()) in
      log_timing ~name:"lac-cold" ~circuit:name ~domains:1 ~solver:(solver_json cold) cold_dt;
      let warm, warm_dt = best_of_runs reps (fun () -> run ()) in
      log_timing ~name:"lac-warm" ~circuit:name ~domains:1 ~solver:(solver_json warm) warm_dt;
      let warm2, warm2_dt =
        Lacr_util.Pool.with_pool ~size:2 (fun pool -> best_of_runs reps (fun () -> run ~pool ()))
      in
      log_timing ~name:"lac-warm" ~circuit:name ~domains:2 ~solver:(solver_json warm2) warm2_dt;
      let identical = lac_outcome_equal cold warm && lac_outcome_equal cold warm2 in
      let rounds = List.length warm.Lac.solver in
      let warm_hits =
        List.length (List.filter (fun s -> s.Lacr_mcmf.Mcmf.warm_start) warm.Lac.solver)
      in
      Printf.printf "%-8s %6d | %10.2f %10.2f %10.2f | %7.2fx %6d/%-3d %10s\n%!" name rounds
        (1000.0 *. cold_dt) (1000.0 *. warm_dt) (1000.0 *. warm2_dt) (cold_dt /. warm_dt)
        warm_hits rounds
        (if identical then "yes" else "NO!");
      if not identical then
        failwith (name ^ ": warm-started engine outcome differs from cold per-round compiles"))
    circuits;
  Printf.printf
    "\n(cold recompiles the flow network every re-weighting round; warm compiles once and\n\
     reuses the previous round's dual potentials; 'identical' checks labels, N_FOA, N_F,\n\
     N_FN and the full convergence trace across engines and pool sizes)\n"

(* --- R: negotiated-congestion global router --- *)

(* Bit-identity across pool sizes: the full routed outcome, not just
   the aggregates — per-net segments, sink paths and wirelengths, the
   usage arrays and the per-pass overflow trajectory. *)
let router_outcome_equal (a : Gr.result) (b : Gr.result) =
  Array.length a.Gr.nets = Array.length b.Gr.nets
  && Array.for_all2
       (fun (x : Gr.routed_net) (y : Gr.routed_net) ->
         x.Gr.segments = y.Gr.segments
         && x.Gr.sink_paths = y.Gr.sink_paths
         && x.Gr.wirelength = y.Gr.wirelength)
       a.Gr.nets b.Gr.nets
  && a.Gr.total_wirelength = b.Gr.total_wirelength
  && a.Gr.overflow = b.Gr.overflow
  && a.Gr.max_utilization = b.Gr.max_utilization
  && a.Gr.pass_overflow = b.Gr.pass_overflow

let run_router_scaling () =
  section "R   global router: A* engine, sequential vs domain pool";
  let circuits = if fast_mode then [ "s526" ] else [ "s1269"; "s1423" ] in
  let reps = if fast_mode then 3 else 7 in
  let domain_counts = [ 2; 4 ] in
  Printf.printf "%-8s %6s | %10s %s | %7s %10s\n" "circuit" "nets" "astar(ms)"
    (String.concat " "
       (List.map (fun d -> Printf.sprintf "%8s" (Printf.sprintf "%dd(ms)" d)) domain_counts))
    "par-spd" "identical";
  List.iter
    (fun name ->
      let netlist = Option.get (Suite.by_name name) in
      let inst = match Build.build netlist with Ok i -> i | Error msg -> failwith msg in
      let tg = inst.Build.tilegraph in
      let nets = Array.map (fun (r : Gr.routed_net) -> r.Gr.net) inst.Build.routing.Gr.nets in
      let base, base_dt = best_of_runs reps (fun () -> Gr.route_all tg nets) in
      log_router ~circuit:name ~domains:1 base base_dt;
      let pool_results =
        List.map
          (fun domains ->
            Pool.with_pool ~size:domains (fun pool ->
                let res, dt = best_of_runs reps (fun () -> Gr.route_all ~pool tg nets) in
                log_router ~circuit:name ~domains res dt;
                (res, dt)))
          domain_counts
      in
      let identical = List.for_all (fun (res, _) -> router_outcome_equal base res) pool_results in
      let best_parallel =
        List.fold_left (fun acc (_, dt) -> min acc dt) infinity pool_results
      in
      Printf.printf "%-8s %6d | %10.2f %s | %6.2fx %10s\n%!" name (Array.length nets)
        (1000.0 *. base_dt)
        (String.concat " "
           (List.map (fun (_, dt) -> Printf.sprintf "%8.2f" (1000.0 *. dt)) pool_results))
        (base_dt /. best_parallel)
        (if identical then "yes" else "NO!");
      if not identical then failwith (name ^ ": parallel routing differs from single-domain");
      Printf.printf "%-8s          wirelength %.4f mm, overflow %.2f\n%!" ""
        base.Gr.total_wirelength base.Gr.overflow)
    circuits;
  Printf.printf
    "\n(astar = epoch-stamped integer A* engine with CSR sink recovery and\n\
     PathFinder history, nets negotiated in order on one domain while the pool builds\n\
     topologies and recovers sink paths; par-spd = sequential / best pooled time;\n\
     'identical' checks segments, sink paths, wirelengths, overflow and the per-pass\n\
     trajectory across all pool sizes)\n"

(* --- T: observability — traced stage breakdown and overhead guard --- *)

let run_trace_observability () =
  section "T   Observability: traced per-stage breakdown; trace-off overhead guard";
  let name = if fast_mode then "s526" else "s1423" in
  (* One traced planning run; its span summary is the per-stage
     breakdown, and the rows land in the --json stage log. *)
  let netlist = Option.get (Suite.by_name name) in
  let ctx = Trace.create () in
  (match Planner.plan_checked ~second_iteration:false ~trace:ctx netlist with
  | Error e -> Printf.printf "%s: planning failed (%s)\n" name (Planner.error_message e)
  | Ok _ ->
    Printf.printf "per-stage breakdown of one traced planning run (%s):\n\n" name;
    print_string (Report.render_trace_summary ctx);
    List.iter
      (fun (depth, sname, count, total_s) ->
        log stages
          [
            ("name", Jsonx.Str sname);
            ("circuit", Jsonx.Str name);
            ("depth", Jsonx.of_int depth);
            ("count", Jsonx.of_int count);
            ("ms", Jsonx.Num (1000.0 *. total_s));
          ])
      (Trace.span_summary ~max_depth:2 ctx));
  (* Guard: with tracing off (the default), the hottest kernel must run
     at its untraced speed (<= 2% tolerance) and allocate not one word
     more — the disabled context reduces every hook to a constant
     pattern match. *)
  let g = retime_graph_of name in
  let reps = 10 in
  let _, base_dt = best_of_runs reps (fun () -> Paths.compute g) in
  let _, off_dt = best_of_runs reps (fun () -> Paths.compute ~trace:Trace.disabled g) in
  let live = Trace.create () in
  let _, on_dt = best_of_runs reps (fun () -> Paths.compute ~trace:live g) in
  log_timing ~name:"wd-trace-off" ~circuit:name ~domains:1 off_dt;
  log_timing ~name:"wd-trace-on" ~circuit:name ~domains:1 on_dt;
  let alloc f =
    let before = Gc.minor_words () in
    ignore (f ());
    Gc.minor_words () -. before
  in
  ignore (alloc (fun () -> Paths.compute g));
  let base_words = alloc (fun () -> Paths.compute g) in
  let off_words = alloc (fun () -> Paths.compute ~trace:Trace.disabled g) in
  let overhead = 100.0 *. (off_dt -. base_dt) /. base_dt in
  Printf.printf
    "\n(W,D) on %s: default %.2f ms, trace-off %.2f ms (%+.1f%%), trace-on %.2f ms\n" name
    (1000.0 *. base_dt) (1000.0 *. off_dt) overhead (1000.0 *. on_dt);
  Printf.printf "allocation per run: default %.0f minor words, trace-off %.0f\n" base_words
    off_words;
  (* Passing [~trace] explicitly boxes one [Some] at the call site; the
     kernel itself must not allocate a word more on the disabled path. *)
  if off_words -. base_words > 16.0 then
    failwith "disabled tracing allocates in the (W,D) kernel";
  if off_dt -. base_dt > 0.02 *. base_dt then
    Printf.printf "WARNING: trace-off time outside the 2%% guard (likely machine noise; re-run)\n"
  else Printf.printf "trace-off overhead within the 2%% guard\n"

(* --- E1/E2/E3: Table 1 --- *)

let run_table1 () =
  section "E1/E2  Table 1: interconnect planning, min-area vs LAC-retiming";
  let rows =
    List.filter_map
      (fun (name, netlist) ->
        Printf.eprintf "  planning %s...\n%!" name;
        match Planner.plan_checked netlist with
        | Ok run -> Some (Report.row_of_run ~name run)
        | Error e ->
          Printf.printf "  %s: planning failed (%s)\n" name (Planner.error_message e);
          None)
      (table1_circuits ())
  in
  print_string (Report.render_table1 rows);
  Printf.printf
    "\n(parenthesised N_FOA = after the second planning iteration with\n\
     expanded soft blocks; N/A = min-area produced no violations)\n";
  section "E3  Flip-flops relocated into interconnects (paper: ~10%, up to ~30%)";
  let mean_frac, max_frac = Report.interconnect_ff_fraction rows in
  Printf.printf "LAC N_FN / N_F over the suite: mean %.0f%%, max %.0f%%\n" (100.0 *. mean_frac)
    (100.0 *. max_frac)

(* --- E4: alpha ablation --- *)

let run_alpha_ablation () =
  section "E4  Alpha ablation on s526 (paper 4.2: alpha ~ 0.2 typically best)";
  let inst = ablation_instance () in
  let _, _, t_clk, cs = Planner.retiming_setup inst in
  Printf.printf "T_clk = %.2f ns\n\n%8s %8s %8s %8s\n" t_clk "alpha" "N_FOA" "N_F" "N_wr";
  List.iter
    (fun alpha ->
      match Lac.retime ~alpha inst cs with
      | Ok { Lac.lac = o; _ } ->
        Printf.printf "%8.2f %8d %8d %8d\n%!" alpha o.Lac.n_foa o.Lac.n_f o.Lac.n_wr
      | Error msg -> Printf.printf "%8.2f failed: %s\n" alpha msg)
    [ 0.0; 0.05; 0.1; 0.2; 0.3; 0.5; 0.8; 1.0 ]

(* --- E5: run time --- *)

let run_runtime () =
  section "E5  Run time: LAC vs min-area; constraint pruning ablation";
  let names = if fast_mode then [ "s298"; "s386" ] else [ "s298"; "s386"; "s400"; "s526" ] in
  Printf.printf "%-8s %12s %12s %8s %14s %14s\n" "circuit" "min-area(s)" "LAC(s)" "N_wr"
    "constraints" "pruned";
  List.iter
    (fun name ->
      let netlist = Option.get (Suite.by_name name) in
      match Build.build netlist with
      | Error msg -> Printf.printf "%-8s build failed: %s\n" name msg
      | Ok inst ->
        let _, _, _, cs_pruned = Planner.retiming_setup inst in
        let _, _, _, cs_full =
          Planner.retiming_setup
            { inst with Build.config = { inst.Build.config with Config.prune_constraints = false } }
        in
        (match Lac.retime inst cs_pruned with
        | Ok { Lac.minarea = ma; lac } ->
          log_timing ~name:"min-area" ~circuit:name ~domains:1 ma.Lac.exec_seconds;
          log_timing ~name:"lac-retime" ~circuit:name ~domains:1 lac.Lac.exec_seconds;
          Printf.printf "%-8s %12.2f %12.2f %8d %14d %14d\n%!" name ma.Lac.exec_seconds
            lac.Lac.exec_seconds lac.Lac.n_wr
            cs_full.Constraints.system.Constraints.m cs_pruned.Constraints.system.Constraints.m
        | Error msg -> Printf.printf "%-8s failed: %s\n" name msg))
    names;
  Printf.printf
    "\n(min-area(s) is LAC's round 0, flow-network compile included; the\n\
     paper's claim: LAC run time is the same order as one min-area\n\
     retiming because the clocking constraints are generated once)\n"

(* --- A1: N_max ablation --- *)

let run_nmax_ablation () =
  section "A1  N_max ablation on s526 (non-improving rounds before stopping)";
  let inst = ablation_instance () in
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

(* --- F1/F2: figures --- *)

let run_figures () =
  section "F1  Figure 1: interconnect planning in the design flow";
  print_string (Report.render_flow_figure ());
  section "F2  Figure 2: tile graph (s298)";
  let netlist = Option.get (Suite.by_name "s298") in
  match Build.build netlist with
  | Ok inst -> print_string (Report.render_tile_figure inst)
  | Error msg -> Printf.printf "build failed: %s\n" msg

(* --- bechamel micro-benchmarks --- *)

let run_bechamel () =
  section "B   Bechamel micro-benchmarks of the planner kernels (s298-sized)";
  let open Bechamel in
  let netlist = Option.get (Suite.by_name "s298") in
  let inst = match Build.build netlist with Ok inst -> inst | Error msg -> failwith msg in
  let _, _, t_clk, cs = Planner.retiming_setup inst in
  let g = inst.Build.graph and extra = inst.Build.pin_constraints in
  let wd = Paths.compute g in
  let area = Array.make (Graph.num_vertices g) 1.0 in
  let tests =
    [
      Test.make ~name:"wd-matrices" (Staged.stage (fun () -> ignore (Paths.compute g)));
      Test.make ~name:"dijkstra-row-csr"
        (Staged.stage (fun () -> ignore (Paths.min_weights g 0)));
      Test.make ~name:"constraint-gen-pruned"
        (Staged.stage (fun () ->
             ignore (Constraints.generate ~prune:true ~extra g wd ~period:t_clk)));
      Test.make ~name:"feasibility-probe"
        (Staged.stage (fun () -> ignore (Feasibility.feasible ~extra g wd ~period:t_clk)));
      Test.make ~name:"weighted-min-area"
        (Staged.stage (fun () -> ignore (Min_area.solve_weighted g cs ~area)));
      Test.make ~name:"clock-period" (Staged.stage (fun () -> ignore (Graph.clock_period g)));
      Test.make ~name:"cycle-ratio-bound"
        (Staged.stage (fun () -> ignore (Paths.cycle_ratio_lower_bound g)));
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
  if want "P" then run_wd_scaling ();
  if want "S" then run_scale ();
  if want "U" then run_scale_u ();
  if want "Q" then run_warm_engine ();
  if want "R" then run_router_scaling ();
  if want "T" then run_trace_observability ();
  if want "E" then run_table1 ();
  if want "E" then run_alpha_ablation ();
  if want "E" then run_runtime ();
  if want "A" then run_nmax_ablation ();
  if want "A" then run_grid_ablation ();
  if want "A" then run_exact_gap ();
  if want "F" then run_figures ();
  if want "B" then run_bechamel ();
  (match json_path with Some path -> write_json path | None -> ());
  print_newline ()
