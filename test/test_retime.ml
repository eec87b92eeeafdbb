(* Tests for the retiming library: the Leiserson-Saxe correlator with
   its textbook numbers, brute-force cross-checks of min-period and
   min-area retiming on random small graphs, and QCheck properties of
   retiming legality. *)

module Graph = Lacr_retime.Graph
module Paths = Lacr_retime.Paths
module Constraints = Lacr_retime.Constraints
module Feasibility = Lacr_retime.Feasibility
module Min_area = Lacr_retime.Min_area
module Rng = Lacr_util.Rng

(* The planner's T_clk between the minimum and the initial period. *)
let planner_t_clk = Lacr_core.Config.t_clk Lacr_core.Config.default

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* The classic correlator (Leiserson-Saxe, "Retiming Synchronous
   Circuitry", Fig. 1): host + three delay-7 adders + four delay-3
   comparators; clock period 24 before retiming, 13 after min-period
   retiming. *)
let correlator () =
  let delays = [| 0.0; 3.0; 3.0; 3.0; 3.0; 7.0; 7.0; 7.0 |] in
  let e src dst weight = { Graph.src; dst; weight } in
  let edges =
    [
      e 0 1 1;
      e 1 2 1;
      e 2 3 1;
      e 3 4 1;
      e 4 5 0;
      e 5 6 0;
      e 6 7 0;
      e 7 0 0;
      e 3 5 0;
      e 2 6 0;
      e 1 7 0;
    ]
  in
  Graph.create ~delays ~edges ~host:0

let test_correlator_period () =
  let g = correlator () in
  check_float "initial period" 24.0 (Graph.clock_period g)

let test_correlator_min_period () =
  let g = correlator () in
  let wd = Paths.compute g in
  let result = Feasibility.min_period g wd in
  check_float "min period" 13.0 result.Feasibility.period;
  match Graph.retime g result.Feasibility.labels with
  | Error msg -> Alcotest.fail msg
  | Ok retimed -> check "retimed meets period" true (Graph.clock_period retimed <= 13.0 +. 1e-9)

let test_correlator_ff_preservation () =
  (* Retiming preserves the number of flip-flops on every cycle; for
     the correlator's single big cycle the total along it is 4. *)
  let g = correlator () in
  let wd = Paths.compute g in
  let result = Feasibility.min_period g wd in
  match Graph.retime g result.Feasibility.labels with
  | Error msg -> Alcotest.fail msg
  | Ok retimed ->
    let cycle_edges = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5); (5, 6); (6, 7); (7, 0) ] in
    let weight_of g (src, dst) =
      let matching =
        List.filter (fun (e : Graph.edge) -> e.Graph.src = src && e.Graph.dst = dst)
          (Array.to_list (Graph.edges g))
      in
      List.fold_left (fun acc (e : Graph.edge) -> acc + e.Graph.weight) 0 matching
    in
    let before = List.fold_left (fun acc p -> acc + weight_of g p) 0 cycle_edges in
    let after = List.fold_left (fun acc p -> acc + weight_of retimed p) 0 cycle_edges in
    check_int "cycle weight preserved" before after

(* --- random graph machinery ------------------------------------------ *)

(* A random retiming graph: host 0 (delay 0) on a weighted ring (so
   everything is reachable and no zero-weight cycle exists), plus a few
   chords.  Returns a graph over [n] vertices. *)
let random_graph rng n =
  let delays = Array.init n (fun v -> if v = 0 then 0.0 else float_of_int (1 + Rng.int rng 5)) in
  let ring =
    List.init n (fun v -> { Graph.src = v; dst = (v + 1) mod n; weight = 1 + Rng.int rng 2 })
  in
  let n_chords = Rng.int rng (n + 1) in
  let chords = ref [] in
  for _c = 1 to n_chords do
    let src = Rng.int rng n and dst = Rng.int rng n in
    if src <> dst then begin
      (* Backward chords need weight >= 1 to keep zero-weight cycles
         impossible; forward chords may carry weight 0 (any cycle
         through them must close via a ring edge, which weighs >= 1).
         Zero-weight chords create equal-W candidate ties and
         zero-weight implications, the cases where prune tie-break
         order is observable. *)
      let weight = if src < dst && Rng.int rng 100 < 40 then 0 else 1 + Rng.int rng 2 in
      chords := { Graph.src; dst; weight } :: !chords
    end
  done;
  Graph.create ~delays ~edges:(ring @ !chords) ~host:0

(* Enumerate retimings r in [-range, range]^(n-1) with r(0) = 0. *)
let enumerate_retimings g range f =
  let n = Graph.num_vertices g in
  let r = Array.make n 0 in
  let rec go v =
    if v = n then f r
    else
      for candidate = -range to range do
        r.(v) <- candidate;
        go (v + 1)
      done
  in
  go 1

let brute_force_min_period g range =
  let best = ref infinity in
  enumerate_retimings g range (fun r ->
      if Graph.is_legal g r then
        match Graph.retime g r with
        | Ok retimed ->
          let p = Graph.clock_period retimed in
          if p < !best then best := p
        | Error _ -> ());
  !best

let brute_force_min_area g range ~period =
  let best = ref max_int in
  enumerate_retimings g range (fun r ->
      if Graph.is_legal g r then
        match Graph.retime g r with
        | Ok retimed ->
          if Graph.clock_period retimed <= period +. 1e-9 then begin
            let ffs = Graph.total_ffs retimed in
            if ffs < !best then best := ffs
          end
        | Error _ -> ());
  !best

let test_min_period_matches_brute_force () =
  let rng = Rng.create 11 in
  for _trial = 1 to 20 do
    let n = 3 + Rng.int rng 2 in
    let g = random_graph rng n in
    let wd = Paths.compute g in
    let solved = Feasibility.min_period g wd in
    let brute = brute_force_min_period g 4 in
    if abs_float (solved.Feasibility.period -. brute) > 1e-6 then
      Alcotest.failf "min-period mismatch: solver %f vs brute force %f" solved.Feasibility.period
        brute
  done

let test_min_area_matches_brute_force () =
  let rng = Rng.create 23 in
  for _trial = 1 to 20 do
    let n = 3 + Rng.int rng 2 in
    let g = random_graph rng n in
    let wd = Paths.compute g in
    let mp = Feasibility.min_period g wd in
    (* A mildly relaxed target, like the paper's T_clk between T_min
       and T_init. *)
    let period = mp.Feasibility.period +. 1.0 in
    let cs = Constraints.generate g wd ~period in
    (match Min_area.solve g cs with
    | Error msg -> Alcotest.fail msg
    | Ok solution ->
      let brute = brute_force_min_area g 4 ~period in
      check_int "min-area matches brute force" brute solution.Min_area.ff_count;
      (match Graph.retime g solution.Min_area.labels with
      | Error msg -> Alcotest.fail msg
      | Ok retimed ->
        check "period met" true (Graph.clock_period retimed <= period +. 1e-9)))
  done

let test_weighted_min_area_shifts_ffs () =
  (* Ring 0 -> 1 -> 2 -> 0 where vertex 1's fan-out edge is heavily
     penalized: the solver should prefer placing flip-flops on cheap
     edges.  Delays are tiny so the period constraint never binds. *)
  let delays = [| 0.0; 1.0; 1.0 |] in
  let e src dst weight = { Graph.src; dst; weight } in
  let g = Graph.create ~delays ~edges:[ e 0 1 1; e 1 2 1; e 2 0 1 ] ~host:0 in
  let wd = Paths.compute g in
  let cs = Constraints.generate g wd ~period:100.0 in
  let area = [| 1.0; 50.0; 1.0 |] in
  match Min_area.solve_weighted g cs ~area with
  | Error msg -> Alcotest.fail msg
  | Ok solution ->
    let edge_weight src dst =
      let es =
        List.filter (fun (e : Graph.edge) -> e.Graph.src = src && e.Graph.dst = dst)
          (Array.to_list (Graph.edges g))
      in
      List.fold_left (fun acc e -> acc + Graph.retimed_weight g solution.Min_area.labels e) 0 es
    in
    check_int "expensive edge drained" 0 (edge_weight 1 2);
    check_int "total ffs preserved on cycle" 3 (edge_weight 0 1 + edge_weight 1 2 + edge_weight 2 0)

let test_constraint_pruning_preserves_optimum () =
  let rng = Rng.create 31 in
  for _trial = 1 to 10 do
    let n = 4 + Rng.int rng 2 in
    let g = random_graph rng n in
    let wd = Paths.compute g in
    let mp = Feasibility.min_period g wd in
    let period = mp.Feasibility.period +. 0.5 in
    let full = Constraints.generate g wd ~period in
    let pruned = Constraints.generate ~prune:true g wd ~period in
    check "pruned not larger" true (pruned.Constraints.system.Constraints.m <= full.Constraints.system.Constraints.m);
    match (Min_area.solve g full, Min_area.solve g pruned) with
    | Ok a, Ok b -> check_int "same optimum after pruning" a.Min_area.ff_count b.Min_area.ff_count
    | Error m, _ | _, Error m -> Alcotest.fail m
  done

let test_paths_wd_simple_chain () =
  (* host -> a -> b with weights 1, 0: W(host,b) = 1,
     D(a,b) = d(a) + d(b). *)
  let delays = [| 0.0; 2.0; 3.0 |] in
  let e src dst weight = { Graph.src; dst; weight } in
  let g = Graph.create ~delays ~edges:[ e 0 1 1; e 1 2 0; e 2 0 1 ] ~host:0 in
  let dn =
    match Paths.compute ~mode:Paths.Mode.Dense g with
    | Paths.Dense dn -> dn
    | Paths.Streamed _ -> Alcotest.fail "Dense mode must produce dense matrices"
  in
  check_int "W(0,2)" 1 dn.Paths.w.(0).(2);
  check_float "D(1,2)" 5.0 dn.Paths.d.(1).(2);
  check_int "W(1,2)" 0 dn.Paths.w.(1).(2);
  (* Self pairs use the trivial path: W(0,0) = 0, D(0,0) = d(0). *)
  check_int "W(0,0)" 0 dn.Paths.w.(0).(0);
  check_float "D(0,0)" 0.0 dn.Paths.d.(0).(0)

(* --- QCheck properties ------------------------------------------------ *)

let graph_gen =
  QCheck2.Gen.(
    let* n = int_range 3 7 in
    let* seed = int_range 0 1_000_000 in
    return (n, seed))

let make_graph (n, seed) = random_graph (Rng.create seed) n

let prop_min_period_legal =
  QCheck2.Test.make ~count:60 ~name:"min-period retiming is always legal and meets its period"
    graph_gen (fun params ->
      let g = make_graph params in
      let wd = Paths.compute g in
      let result = Feasibility.min_period g wd in
      match Graph.retime g result.Feasibility.labels with
      | Error _ -> false
      | Ok retimed -> Graph.clock_period retimed <= result.Feasibility.period +. 1e-9)

let prop_min_area_not_worse_than_witness =
  QCheck2.Test.make ~count:60 ~name:"min-area never uses more ffs than the feasibility witness"
    graph_gen (fun params ->
      let g = make_graph params in
      let wd = Paths.compute g in
      let mp = Feasibility.min_period g wd in
      let period = mp.Feasibility.period +. 1.0 in
      let cs = Constraints.generate g wd ~period in
      match (Min_area.solve g cs, Feasibility.feasible g wd ~period) with
      | Ok solution, Some witness ->
        let witness_ffs =
          Array.fold_left (fun acc e -> acc + Graph.retimed_weight g witness e) 0 (Graph.edges g)
        in
        solution.Min_area.ff_count <= witness_ffs
      | Error _, _ | _, None -> false)

let prop_cycle_weight_invariant =
  QCheck2.Test.make ~count:60 ~name:"retiming preserves total ffs on the ring cycle" graph_gen
    (fun params ->
      let g = make_graph params in
      let wd = Paths.compute g in
      let mp = Feasibility.min_period g wd in
      match Graph.retime g mp.Feasibility.labels with
      | Error _ -> false
      | Ok retimed ->
        let n = Graph.num_vertices g in
        (* Cycle weight uses ONE edge per hop: chords parallel to a
           ring edge shift by the same r(dst) - r(src) as the ring
           edge, so summing all of them would count the hop's shift
           more than once and break the telescoping.  The minimum over
           parallel edges shifts by exactly that delta, so its ring
           sum is a true retiming invariant. *)
        let ring_weight graph =
          let weight_of src dst =
            Array.fold_left
              (fun acc (e : Graph.edge) ->
                if e.Graph.src = src && e.Graph.dst = dst then min acc e.Graph.weight else acc)
              max_int (Graph.edges graph)
          in
          let rec total v acc = if v = n then acc else total (v + 1) (acc + weight_of v ((v + 1) mod n)) in
          total 0 0
        in
        ring_weight g = ring_weight retimed)

let prop_warm_compiled_matches_cold =
  (* The LAC loop's successive-instance path: compile once, then solve
     a series of re-weighted objectives warm.  Every round must return
     bit-identical labels and ff_area to a cold one-shot solve of the
     same weighted problem (the flow engine canonicalizes its
     potentials, so the dual it lands on is path-independent). *)
  QCheck2.Test.make ~count:40 ~name:"warm compiled solves are bit-identical to cold solves"
    graph_gen (fun ((_, seed) as params) ->
      let g = make_graph params in
      let n = Graph.num_vertices g in
      let wd = Paths.compute g in
      let mp = Feasibility.min_period g wd in
      let cs = Constraints.generate g wd ~period:(mp.Feasibility.period +. 1.0) in
      match Min_area.compile g cs with
      | Error _ -> false
      | Ok compiled ->
        let rng = Rng.create (seed lxor 0x5eed) in
        let area = Array.init n (fun _ -> 0.5 +. Rng.float rng 2.0) in
        let rounds = 3 + Rng.int rng 3 in
        let ok = ref true in
        for _round = 1 to rounds do
          (match (Min_area.solve_compiled compiled ~area, Min_area.solve_weighted g cs ~area) with
          | Ok warm, Ok cold ->
            if
              warm.Min_area.labels <> cold.Min_area.labels
              || warm.Min_area.ff_area <> cold.Min_area.ff_area
              || warm.Min_area.ff_count <> cold.Min_area.ff_count
            then ok := false
          | _ -> ok := false);
          (* Mimic the LAC re-weighting: multiplicative per-vertex bumps. *)
          Array.iteri (fun v a -> area.(v) <- a *. (0.8 +. Rng.float rng 0.6)) area
        done;
        !ok)

let suite =
  [
    Alcotest.test_case "correlator initial period" `Quick test_correlator_period;
    Alcotest.test_case "correlator min period = 13" `Quick test_correlator_min_period;
    Alcotest.test_case "correlator cycle ffs preserved" `Quick test_correlator_ff_preservation;
    Alcotest.test_case "min-period matches brute force" `Slow test_min_period_matches_brute_force;
    Alcotest.test_case "min-area matches brute force" `Slow test_min_area_matches_brute_force;
    Alcotest.test_case "weighted min-area drains expensive tiles" `Quick
      test_weighted_min_area_shifts_ffs;
    Alcotest.test_case "constraint pruning preserves optimum" `Quick
      test_constraint_pruning_preserves_optimum;
    Alcotest.test_case "W/D on a simple chain" `Quick test_paths_wd_simple_chain;
    QCheck_alcotest.to_alcotest prop_min_period_legal;
    QCheck_alcotest.to_alcotest prop_min_area_not_worse_than_witness;
    QCheck_alcotest.to_alcotest prop_cycle_weight_invariant;
    QCheck_alcotest.to_alcotest prop_warm_compiled_matches_cold;
  ]

(* --- cycle-ratio lower bound and compiled feasibility systems --- *)

let test_cycle_ratio_two_cycle () =
  (* 0 -> 1 -> 0 with one register on the cycle: ratio = (d0 + d1)/1.
     The host 0 has delay 0 here, so the bound is d1 = 6 ... plus the
     cycle ratio 6/1 = 6; with d = [0; 6] both give 6. *)
  let delays = [| 0.0; 6.0 |] in
  let e src dst weight = { Graph.src; dst; weight } in
  let g = Graph.create ~delays ~edges:[ e 0 1 1; e 1 0 0 ] ~host:0 in
  check_float "ratio bound" 6.0 (Paths.cycle_ratio_lower_bound g)

let test_cycle_ratio_spread_registers () =
  (* Cycle of delay 9 with 3 registers: bound = max(max_d, 9/3). *)
  let delays = [| 0.0; 4.0; 2.0; 3.0 |] in
  let e src dst weight = { Graph.src; dst; weight } in
  let g =
    Graph.create ~delays ~edges:[ e 0 1 1; e 1 2 1; e 2 3 1; e 3 0 0 ] ~host:0
  in
  (* Cycle delay = 0+4+2+3 = 9, registers 3 -> ratio 3; max vertex 4. *)
  check_float "max delay dominates" 4.0 (Paths.cycle_ratio_lower_bound g)

let prop_cycle_ratio_bounds_min_period =
  QCheck2.Test.make ~count:50 ~name:"cycle-ratio bound never exceeds the min period" graph_gen
    (fun params ->
      let g = make_graph params in
      let wd = Paths.compute g in
      let bound = Paths.cycle_ratio_lower_bound g in
      let mp = Feasibility.min_period g wd in
      bound <= mp.Feasibility.period +. 1e-6)

let prop_compile_matches_generate =
  (* The throwaway compiled probe system and the generated constraint
     system must agree on feasibility for arbitrary periods. *)
  QCheck2.Test.make ~count:50 ~name:"compiled probes match list-based feasibility" graph_gen
    (fun params ->
      let g = make_graph params in
      let wd = Paths.compute g in
      let period = 2.0 +. float_of_int (Hashtbl.hash params mod 13) in
      let s = (Constraints.generate g wd ~period).Constraints.system in
      let via_generate =
        Lacr_mcmf.Difference.feasible_arrays ~n:(Graph.num_vertices g) ~a:s.Constraints.ca
          ~b:s.Constraints.cb ~bound:s.Constraints.cbound ~m:s.Constraints.m
        <> None
      in
      let via_probe = Feasibility.feasible g wd ~period <> None in
      via_generate = via_probe)

let suite =
  suite
  @ [
      Alcotest.test_case "cycle ratio: two cycle" `Quick test_cycle_ratio_two_cycle;
      Alcotest.test_case "cycle ratio: spread registers" `Quick test_cycle_ratio_spread_registers;
      QCheck_alcotest.to_alcotest prop_cycle_ratio_bounds_min_period;
      QCheck_alcotest.to_alcotest prop_compile_matches_generate;
    ]

(* --- FEAS cross-check ------------------------------------------------- *)

module Feas = Lacr_oracle.Feas

let test_feas_correlator () =
  let g = correlator () in
  (match Feas.feasible g ~period:13.0 with
  | None -> Alcotest.fail "FEAS should achieve 13"
  | Some labels ->
    (match Graph.retime g labels with
    | Error msg -> Alcotest.fail msg
    | Ok retimed -> check "period met" true (Graph.clock_period retimed <= 13.0 +. 1e-9)));
  check "FEAS rejects 12" true (Feas.feasible g ~period:12.0 = None)

let prop_feas_agrees_with_constraints =
  QCheck2.Test.make ~count:40 ~name:"FEAS and constraint-based min-period agree" graph_gen
    (fun params ->
      let g = make_graph params in
      let wd = Paths.compute g in
      let via_constraints = Feasibility.min_period g wd in
      let via_feas = Feas.min_period g wd in
      abs_float (via_constraints.Feasibility.period -. via_feas.Feasibility.period) < 1e-6)

let prop_feas_witness_legal =
  QCheck2.Test.make ~count:40 ~name:"FEAS witnesses are legal and meet their period" graph_gen
    (fun params ->
      let g = make_graph params in
      let wd = Paths.compute g in
      let result = Feas.min_period g wd in
      match Graph.retime g result.Feasibility.labels with
      | Error _ -> false
      | Ok retimed -> Graph.clock_period retimed <= result.Feasibility.period +. 1e-9)

let suite =
  suite
  @ [
      Alcotest.test_case "FEAS on the correlator" `Quick test_feas_correlator;
      QCheck_alcotest.to_alcotest prop_feas_agrees_with_constraints;
      QCheck_alcotest.to_alcotest prop_feas_witness_legal;
    ]

(* --- static timing analysis ------------------------------------------- *)

module Timing = Lacr_oracle.Timing

let test_timing_correlator () =
  let g = correlator () in
  match Timing.analyze g ~period:24.0 with
  | Error msg -> Alcotest.fail msg
  | Ok t ->
    check "meets its own period" true (Timing.meets_period t);
    check_float "worst slack zero on critical path" 0.0 (Timing.worst_slack t);
    (match Timing.analyze g ~period:20.0 with
    | Error msg -> Alcotest.fail msg
    | Ok tight ->
      check "violates 20" false (Timing.meets_period tight);
      check_float "slack deficit" (-4.0) (Timing.worst_slack tight))

let test_timing_critical_path () =
  let g = correlator () in
  match Timing.critical_path g with
  | Error msg -> Alcotest.fail msg
  | Ok path ->
    (* A maximal zero-weight path carrying the full 24 ns (two exist:
       4->5->6->7 and 3->5->6->7). *)
    let total = List.fold_left (fun acc v -> acc +. Graph.delay g v) 0.0 path in
    check_float "path carries the clock period" 24.0 total;
    let rec connected = function
      | a :: (b :: _ as rest) ->
        Array.exists
          (fun (e : Graph.edge) -> e.Graph.src = a && e.Graph.dst = b && e.Graph.weight = 0)
          (Graph.edges g)
        && connected rest
      | [ _ ] | [] -> true
    in
    check "consecutive zero-weight edges" true (connected path);
    let rendered = Format.asprintf "%a" (Timing.pp_path g) path in
    check "renders" true (String.length rendered > 10)

let test_timing_after_retiming () =
  let g = correlator () in
  let wd = Paths.compute g in
  let mp = Feasibility.min_period g wd in
  match Timing.analyze ~labels:mp.Feasibility.labels g ~period:13.0 with
  | Error msg -> Alcotest.fail msg
  | Ok t -> check "retimed meets 13" true (Timing.meets_period t)

let prop_timing_agrees_with_clock_period =
  QCheck2.Test.make ~count:50 ~name:"arrival max equals Graph.clock_period" graph_gen
    (fun params ->
      let g = make_graph params in
      match Timing.analyze g ~period:1000.0 with
      | Error _ -> false
      | Ok t ->
        let max_arrival = Array.fold_left max 0.0 t.Timing.arrival in
        abs_float (max_arrival -. Graph.clock_period g) < 1e-9)

let suite =
  suite
  @ [
      Alcotest.test_case "timing on correlator" `Quick test_timing_correlator;
      Alcotest.test_case "timing critical path" `Quick test_timing_critical_path;
      Alcotest.test_case "timing after retiming" `Quick test_timing_after_retiming;
      QCheck_alcotest.to_alcotest prop_timing_agrees_with_clock_period;
    ]

(* --- parallel (W,D) engine and pooled constraint generation ---------- *)

let wd_equal (a : Paths.wd) (b : Paths.wd) =
  (* Structural equality is bitwise here: the cells are ints and
     floats produced by the very same operations, so any engine
     divergence (including NaN/infinity handling) fails it.  Backends
     must match too: Dense never equals Streamed. *)
  match (a, b) with
  | Paths.Dense a, Paths.Dense b -> a.Paths.w = b.Paths.w && a.Paths.d = b.Paths.d
  | Paths.Streamed a, Paths.Streamed b ->
    a.Paths.row_off = b.Paths.row_off
    && a.Paths.fdst = b.Paths.fdst
    && a.Paths.fwgt = b.Paths.fwgt
    && a.Paths.fdly = b.Paths.fdly
    && Float.compare a.Paths.threshold b.Paths.threshold = 0
  | _ -> false

(* Both backends: the streamed frontier the planner runs and the dense
   matrices the tests compare against. *)
let modes = [ Paths.Mode.Dense; Paths.Mode.Stream ]

let prop_parallel_wd_bit_identical =
  QCheck2.Test.make ~count:40
    ~name:"parallel Paths.compute (2 and 4 domains) is bit-identical to sequential" graph_gen
    (fun params ->
      let g = make_graph params in
      List.for_all
        (fun mode ->
          let sequential = Paths.compute ~mode g in
          List.for_all
            (fun domains ->
              Lacr_util.Pool.with_pool ~size:domains (fun pool ->
                  wd_equal sequential (Paths.compute ~mode ~pool g)))
            [ 2; 4 ])
        modes)

let prop_parallel_wd_odd_pool =
  (* An odd pool size (uneven chunking, one worker more than cores on
     CI boxes) must still land every row bit-identically. *)
  QCheck2.Test.make ~count:20 ~name:"parallel Paths.compute with an odd pool size" graph_gen
    (fun params ->
      let g = make_graph params in
      List.for_all
        (fun mode ->
          let sequential = Paths.compute ~mode g in
          Lacr_util.Pool.with_pool ~size:3 (fun pool ->
              wd_equal sequential (Paths.compute ~mode ~pool g)))
        modes)

let test_pooled_constraints_identical () =
  (* Constraints.generate must return the same list — contents AND
     order — with the pool enabled, pruned or not, so downstream
     solvers see byte-identical systems under any --domains. *)
  let g = make_graph (9, 77013) in
  let wd = Paths.compute g in
  let extra = [ { Lacr_mcmf.Difference.a = 1; b = 0; bound = 0 } ] in
  let mp = Feasibility.min_period ~extra g wd in
  let period = mp.Feasibility.period +. 0.5 in
  Lacr_util.Pool.with_pool ~size:4 (fun pool ->
      List.iter
        (fun prune ->
          let seq = Constraints.generate ~prune ~extra g wd ~period in
          let par = Constraints.generate ~prune ~extra ~pool g wd ~period in
          check
            (Printf.sprintf "constraint systems equal (prune=%b)" prune)
            true
            (seq.Constraints.system = par.Constraints.system);
          check_int "n_period equal" seq.Constraints.n_period par.Constraints.n_period)
        [ false; true ])

let test_pooled_lac_outcome_identical () =
  (* End-to-end: LAC-retiming outcomes are pool-size independent. *)
  let rng = Rng.create 90210 in
  let g = random_graph rng 8 in
  let n = Graph.num_vertices g in
  let n_tiles = 3 in
  let problem =
    {
      Lacr_core.Problem.graph = g;
      vertex_tile = Array.init n (fun v -> if v = 0 then -1 else v mod n_tiles);
      n_tiles;
      capacity = [| 1.0; 2.0; 1.0 |];
      ff_area = 1.0;
      interconnect = Array.init n (fun v -> v mod 2 = 0);
    }
  in
  let wd = Paths.compute g in
  let mp = Feasibility.min_period g wd in
  let cs = Constraints.generate ~prune:true g wd ~period:(mp.Feasibility.period +. 1.0) in
  match
    ( Lacr_core.Lac.retime_problem problem cs,
      Lacr_util.Pool.with_pool ~size:2 (fun pool ->
          Lacr_core.Lac.retime_problem ~pool problem cs) )
  with
  | Ok a, Ok b ->
    List.iter
      (fun (what, (x : Lacr_core.Lac.outcome), (y : Lacr_core.Lac.outcome)) ->
        check (what ^ " labels equal") true (x.Lacr_core.Lac.labels = y.Lacr_core.Lac.labels);
        check_int (what ^ " n_foa equal") x.Lacr_core.Lac.n_foa y.Lacr_core.Lac.n_foa;
        check_int (what ^ " n_f equal") x.Lacr_core.Lac.n_f y.Lacr_core.Lac.n_f;
        check_int (what ^ " n_fn equal") x.Lacr_core.Lac.n_fn y.Lacr_core.Lac.n_fn)
      [
        ("min-area", a.Lacr_core.Lac.minarea, b.Lacr_core.Lac.minarea);
        ("lac", a.Lacr_core.Lac.lac, b.Lacr_core.Lac.lac);
      ]
  | Error msg, _ | _, Error msg -> Alcotest.fail msg

(* --- streamed backend equivalence ------------------------------------ *)

(* The contract the planner relies on: for every period any consumer
   ever probes (min-period candidates and the derived T_clk), the
   streamed backend produces the same constraint systems as the dense
   matrices — pruned and unpruned, same content, same order — at
   every pool size (generation is graph-direct on the streamed side),
   and its frontier-backed probe systems are the implication-
   equivalent reduction of the dense enumeration: identical
   Bellman-Ford distance vectors, whose labels satisfy the full dense
   system. *)
let prop_stream_dense_identical =
  QCheck.Test.make ~name:"streamed backend == dense backend (constraints + min-period)"
    ~count:40
    QCheck.(pair (int_range 4 24) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let g = random_graph (Rng.create seed) n in
      let dense = Paths.compute ~mode:Paths.Mode.Dense g in
      let mp_d = Feasibility.min_period g dense in
      let t_min = mp_d.Feasibility.period in
      let t_init = Graph.clock_period g in
      let periods = [ t_min; planner_t_clk ~t_init ~t_min; t_init ] in
      let dist_of (c : Constraints.compiled) =
        Lacr_mcmf.Difference.feasible_arrays ~n:(Graph.num_vertices g) ~a:c.Constraints.ca
          ~b:c.Constraints.cb ~bound:c.Constraints.cbound ~m:c.Constraints.m
      in
      List.for_all
        (fun size ->
          Lacr_util.Pool.with_pool ~size (fun pool ->
              let stream = Paths.compute ~mode:Paths.Mode.Stream ~pool g in
              let mp_s = Feasibility.min_period g stream in
              Float.compare t_min mp_s.Feasibility.period = 0
              && mp_d.Feasibility.labels = mp_s.Feasibility.labels
              && List.for_all
                   (fun period ->
                     List.for_all
                       (fun prune ->
                         let a = Constraints.generate ~prune g dense ~period in
                         let b = Constraints.generate ~prune ~pool g stream ~period in
                         a.Constraints.system = b.Constraints.system
                         && a.Constraints.n_edge = b.Constraints.n_edge
                         && a.Constraints.n_period = b.Constraints.n_period)
                       [ true; false ]
                     &&
                     let cd = Constraints.compile g dense ~period in
                     let cs = Constraints.compile g stream ~period in
                     match (dist_of cd, dist_of cs) with
                     | None, None -> true
                     | Some x, Some y ->
                       x = y
                       && Constraints.satisfied_by
                            (Constraints.generate ~prune:false g dense ~period)
                            y
                     | _ -> false)
                   periods))
        [ 1; 2; 4 ])

(* The frontier answers probes exactly only inside its window; below
   the cycle-ratio bound (near-band pairs under the retention
   threshold are missing) and above the initial clock period (a
   dominance-dropped far pair may have no violating ancestor) the
   streamed [compile] must fall back to the graph-direct enumeration.
   That enumeration lists the dense oracle's pairs in the dense order,
   so verdicts and witness labels must match bit for bit.  The random
   extra constraint can rule out the identity retiming, which keeps
   the probes above T_init from being trivially feasible. *)
let prop_stream_probes_outside_window =
  QCheck.Test.make ~name:"streamed probes outside the frontier window match dense verdicts"
    ~count:200
    QCheck.(pair (int_range 4 24) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let g = random_graph rng n in
      let dense = Paths.compute ~mode:Paths.Mode.Dense g in
      let stream = Paths.compute ~mode:Paths.Mode.Stream g in
      let bound = Paths.cycle_ratio_lower_bound g in
      let t_init = Graph.clock_period g in
      let below = List.init 8 (fun i -> bound *. (1.0 -. (float_of_int (i + 1) /. 40.0))) in
      let above = [ t_init +. 1e-6; t_init +. 0.5; t_init *. 1.5 ] in
      let extra =
        [ { Lacr_mcmf.Difference.a = Rng.int rng n; b = Rng.int rng n; bound = Rng.int rng 3 - 2 } ]
      in
      List.for_all
        (fun extra ->
          List.for_all
            (fun period ->
              Feasibility.feasible ~extra g dense ~period
              = Feasibility.feasible ~extra g stream ~period)
            (below @ above))
        [ []; extra ])

let test_min_period_candidates_in_window () =
  (* On the hier family the critical path's own D values sit a few
     ulps above T_init, and the min-period search probes them.  The
     far cut must leave room for them: a probe outside the window is
     still exact, but it enumerates every far pair graph-direct, which
     is the memory wall the frontier exists to avoid. *)
  match Lacr_circuits.Suite.resolve "hier:500" with
  | Error msg -> Alcotest.fail msg
  | Ok netlist -> (
    match Lacr_core.Build.build netlist with
    | Error msg -> Alcotest.failf "hier:500 build: %s" msg
    | Ok inst -> (
      let g = inst.Lacr_core.Build.graph in
      match Paths.compute g with
      | Paths.Dense _ -> Alcotest.fail "the default backend must stream"
      | Paths.Streamed fr as wd ->
        let t_init = Graph.clock_period g in
        let candidates =
          Paths.distinct_delays wd ~lo:(fr.Paths.fbound -. 1e-9) ~hi:(t_init +. 1e-9)
        in
        check "a candidate lies above T_init" true
          (Array.exists (fun d -> d > t_init) candidates);
        check "every candidate is in the window" true
          (Array.for_all (fun period -> Paths.in_window fr ~period) candidates)))

(* Same length and [Float.compare]-equal element for element. *)
let same a b =
  Array.length a = Array.length b && Array.for_all2 (fun x y -> Float.compare x y = 0) a b

let test_stream_distinct_delays_candidates () =
  (* The streamed candidate window must equal the dense one: that is
     what makes the binary searches probe the same periods.  Both must
     equal the reference: every reachable pair's D value inside the
     window, sorted and deduplicated with [List.sort_uniq
     Float.compare]. *)
  let rng = Rng.create 55117 in
  for _ = 1 to 10 do
    let g = random_graph rng (4 + Rng.int rng 20) in
    let lo = Paths.cycle_ratio_lower_bound g -. 1e-9 in
    let hi = Graph.clock_period g +. 1e-9 in
    let dense_wd = Paths.compute ~mode:Paths.Mode.Dense g in
    let reference = ref [] in
    Paths.iter_pairs dense_wd (fun _ _ _ d ->
        if d >= lo && d <= hi then reference := d :: !reference);
    let reference = Array.of_list (List.sort_uniq Float.compare !reference) in
    let stream_wd = Paths.compute ~mode:Paths.Mode.Stream g in
    check "dense window equals the reference" true
      (same reference (Paths.distinct_delays dense_wd ~lo ~hi));
    check "stream window equals the reference" true
      (same reference (Paths.distinct_delays stream_wd ~lo ~hi))
  done

let test_distinct_delays_keys () =
  (* The int-key sort on hand-picked doubles: zero of both signs (one
     candidate), the smallest subnormal, values one ulp apart,
     duplicates, large values and +inf, each window bound inclusive. *)
  let tiny = Float.succ 0.0 and one_up = Float.succ 1.0 in
  let row = [| 3.5; -0.0; 1.0; one_up; 0.0; tiny; 1e300; infinity; 3.5; 1.0; 7.25 |] in
  let n = Array.length row in
  (* Square, as the dense backend's matrices are: row 0 holds the
     values, every other pair is unreachable. *)
  let wd =
    Paths.Dense
      {
        Paths.w = Array.init n (fun u -> Array.make n (if u = 0 then 0 else max_int));
        d = Array.init n (fun u -> if u = 0 then row else Array.make n 0.0);
      }
  in
  check "full window sorted and deduplicated" true
    (same [| 0.0; tiny; 1.0; one_up; 3.5; 7.25; 1e300; infinity |]
       (Paths.distinct_delays wd ~lo:0.0 ~hi:infinity));
  check "bounds are inclusive" true
    (same [| 1.0; one_up; 3.5 |] (Paths.distinct_delays wd ~lo:1.0 ~hi:3.5));
  check "empty window" true (same [||] (Paths.distinct_delays wd ~lo:8.0 ~hi:9.0));
  check "-0.0 sorts as +0.0" true
    (1.0 /. (Paths.distinct_delays wd ~lo:(-1.0) ~hi:0.0).(0) = infinity)

let test_stream_frontier_shape () =
  (* Structural sanity of the frontier: canonical CSR ordering, the
     near band [threshold, ffar] retained in full with dense-identical
     W/D, far pairs dropped only when an earlier-ordered far candidate
     dominates them, and frontier_weight finding the retained pairs. *)
  let g = random_graph (Rng.create 7321) 16 in
  match Paths.compute ~mode:Paths.Mode.Stream g with
  | Paths.Dense _ -> Alcotest.fail "Stream mode must produce a streamed backend"
  | Paths.Streamed fr as wd ->
    check_int "vertex count" (Graph.num_vertices g) Paths.(num_vertices wd);
    check "far cut above threshold" true (fr.Paths.ffar >= fr.Paths.threshold);
    let prev_u = ref (-1) and prev_v = ref (-1) in
    Paths.iter_frontier wd (fun u v w d ->
        if u <> !prev_u then begin
          check "sources ascending" true (u > !prev_u);
          prev_u := u;
          prev_v := -1
        end;
        check "targets ascending" true (v > !prev_v);
        prev_v := v;
        check "above threshold" true (d >= fr.Paths.threshold);
        check "weight via binary search" true (Paths.frontier_weight fr u v = Some w));
    (match Paths.compute ~mode:Paths.Mode.Dense g with
    | Paths.Streamed _ -> Alcotest.fail "Dense mode must produce dense matrices"
    | Paths.Dense dn as dwd ->
      let members = Hashtbl.create 64 in
      Paths.iter_frontier wd (fun u v w d ->
          check "retained W matches dense" true (dn.Paths.w.(u).(v) = w);
          check "retained D matches dense" true (Float.compare dn.Paths.d.(u).(v) d = 0);
          Hashtbl.replace members (u, v) ());
      let n = Graph.num_vertices g in
      Paths.iter_pairs dwd (fun u v w d ->
          if d >= fr.Paths.threshold && not (Hashtbl.mem members (u, v)) then begin
            (* Only far pairs may be missing, and each must have a far
               tight-DAG ancestor — a far x on a minimum-weight u ~> v
               path (triangle equality) — whose retained (or likewise
               dominated) constraint implies the dropped one at every
               probe. *)
            check "only far pairs may be dropped" true (d > fr.Paths.ffar);
            let justified = ref false in
            for x = 0 to n - 1 do
              let wux = dn.Paths.w.(u).(x) in
              if (not !justified) && wux <> max_int && x <> v then begin
                let wxv = dn.Paths.w.(x).(v) in
                if
                  wxv <> max_int
                  && dn.Paths.d.(u).(x) > fr.Paths.ffar
                  && wux + wxv = w
                then justified := true
              end
            done;
            check "dropped far pair is dominated" true !justified
          end))

(* --- flat pipeline == seed reference list ---------------------------- *)

(* The seed's list assembly over the dense (W,D) matrices, kept as the
   reference the graph-direct flat pipeline is compared against: a
   dense scan of every period-violating pair and a greedy dominance
   prune with explicit W implication tests, sharing no code with the
   [Paths] sweep passes. *)

let dense_of g =
  match Paths.compute ~mode:Paths.Mode.Dense g with
  | Paths.Dense dn -> dn
  | Paths.Streamed _ -> Alcotest.fail "Mode.Dense returned a streamed wd"

let violates (dn : Paths.dense) ~period u v =
  let wuv = dn.Paths.w.(u).(v) in
  (* Self pairs carry W(u,u) = 0, so a too-slow vertex produces the
     infeasible bound -1; other self constraints are trivial and
     skipped. *)
  wuv <> max_int && dn.Paths.d.(u).(v) > period +. 1e-9 && (u <> v || wuv = 0)

let constr u v bound = { Lacr_mcmf.Difference.a = u; b = v; bound }

(* Prepend-as-you-go: sources descending, targets descending inside a
   source. *)
let reference_period_constraints (dn : Paths.dense) ~period =
  let n = Array.length dn.Paths.w in
  let acc = ref [] in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if violates dn ~period u v then acc := constr u v (dn.Paths.w.(u).(v) - 1) :: !acc
    done
  done;
  !acc

(* Per-source dominance pruning: a period constraint
   r(u) - r(v) <= W(u,v) - 1 is implied by a kept constraint
   r(u) - r(x) <= W(u,x) - 1 together with the edge-derived bound
   r(x) - r(v) <= W(x,v) whenever W(u,x) + W(x,v) <= W(u,v).  Targets
   are considered by ascending W, equal weights by descending index
   (a stable sort of the descending-index candidate list); the
   mirrored target-side pass then runs over the survivors. *)
let reference_pruned_constraints (dn : Paths.dense) ~period =
  let w = dn.Paths.w in
  let n = Array.length w in
  let survivors = Array.make n [] in
  for u = 0 to n - 1 do
    let candidates = ref [] in
    for v = 0 to n - 1 do
      if violates dn ~period u v then candidates := v :: !candidates
    done;
    let kept = ref [] in
    List.iter
      (fun v ->
        let implied =
          List.exists
            (fun x -> w.(x).(v) <> max_int && w.(u).(x) + w.(x).(v) <= w.(u).(v))
            !kept
        in
        if not implied then kept := v :: !kept)
      (List.stable_sort (fun a b -> Int.compare w.(u).(a) w.(u).(b)) !candidates);
    survivors.(u) <- !kept
  done;
  let by_target = Array.make n [] in
  Array.iteri (fun u vs -> List.iter (fun v -> by_target.(v) <- u :: by_target.(v)) vs) survivors;
  let acc = ref [] in
  for v = 0 to n - 1 do
    let kept = ref [] in
    List.iter
      (fun u ->
        let implied =
          u <> v
          && List.exists
               (fun x -> w.(u).(x) <> max_int && w.(u).(x) + w.(x).(v) <= w.(u).(v))
               !kept
        in
        if not implied then begin
          kept := u :: !kept;
          acc := constr u v (w.(u).(v) - 1) :: !acc
        end)
      (List.stable_sort (fun u1 u2 -> Int.compare w.(u1).(v) w.(u2).(v)) by_target.(v))
  done;
  !acc

let reference_list ~prune ~extra g dn ~period =
  let edges =
    Array.fold_right
      (fun (e : Graph.edge) acc -> constr e.Graph.src e.Graph.dst e.Graph.weight :: acc)
      (Graph.edges g) []
  in
  extra @ edges
  @
  if prune then reference_pruned_constraints dn ~period
  else reference_period_constraints dn ~period

(* The tentpole contract: the arena-backed flat pipeline must emit the
   exact constraint sequence — same (a, b, bound) triples, same order —
   the seed's list assembly produced, for every backend, prune flag and
   pool size.  [reference_list] is that assembly over the dense
   matrices; [to_list] is the flat system viewed as a list. *)
let prop_flat_matches_reference_list =
  QCheck.Test.make ~name:"flat generate == seed reference list (backends x pools x prune)"
    ~count:30
    QCheck.(pair (int_range 4 20) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let g = random_graph (Rng.create seed) n in
      let dn = dense_of g in
      let dense = Paths.Dense dn in
      let mp = Feasibility.min_period g dense in
      let t_min = mp.Feasibility.period in
      let t_init = Graph.clock_period g in
      let period = planner_t_clk ~t_init ~t_min in
      (* An extra caller constraint exercises the header merge order. *)
      let extra = [ constr 0 (n - 1) 2 ] in
      let references =
        List.map (fun prune -> (prune, reference_list ~prune ~extra g dn ~period)) [ false; true ]
      in
      List.for_all
        (fun size ->
          Lacr_util.Pool.with_pool ~size (fun pool ->
              let stream = Paths.compute ~mode:Paths.Mode.Stream ~pool g in
              List.for_all
                (fun wd ->
                  List.for_all
                    (fun (prune, reference) ->
                      Constraints.to_list
                        (Constraints.generate ~prune ~extra ~pool g wd ~period)
                      = reference)
                    references)
                [ dense; stream ]))
        [ 1; 2; 4 ])

let test_flat_matches_reference_on_iscas () =
  (* The same contract pinned on real ISCAS circuits through the full
     build path (pin constraints as [extra], negotiated T_clk), where
     the streamed frontier gate and the prune passes all fire. *)
  List.iter
    (fun name ->
      let netlist = Option.get (Lacr_circuits.Suite.by_name name) in
      match Lacr_core.Build.build netlist with
      | Error msg -> Alcotest.failf "%s build: %s" name msg
      | Ok inst ->
        let g = inst.Lacr_core.Build.graph in
        let extra = inst.Lacr_core.Build.pin_constraints in
        let dn = dense_of g in
        List.iter
          (fun mode ->
            Lacr_util.Pool.with_pool ~size:4 (fun pool ->
                let wd = Paths.compute ~mode ~pool g in
                let mp = Feasibility.min_period ~extra g wd in
                let t_init = Graph.clock_period g in
                let t_clk = planner_t_clk ~t_init ~t_min:mp.Feasibility.period in
                List.iter
                  (fun prune ->
                    let cs = Constraints.generate ~prune ~extra ~pool g wd ~period:t_clk in
                    let reference = reference_list ~prune ~extra g dn ~period:t_clk in
                    check
                      (Printf.sprintf "%s flat == reference (prune=%b)" name prune)
                      true
                      (Constraints.to_list cs = reference);
                    check_int
                      (Printf.sprintf "%s constraint count (prune=%b)" name prune)
                      (List.length reference) cs.Constraints.system.Constraints.m)
                  [ false; true ]))
          [ Paths.Mode.Dense; Paths.Mode.Stream ])
    [ "s27"; "s386"; "s1423" ]

let test_frontier_gate_skips_sources () =
  (* The active-source gate must skip sources without changing a row:
     at s298's T_clk about half of its sources have no period-violating
     pair, and the gate must prove so from the frontier alone. *)
  let netlist = Option.get (Lacr_circuits.Suite.by_name "s298") in
  match Lacr_core.Build.build netlist with
  | Error msg -> Alcotest.failf "s298 build: %s" msg
  | Ok inst -> (
    let g = inst.Lacr_core.Build.graph in
    match Paths.compute g with
    | Paths.Dense _ -> Alcotest.fail "the default backend must stream"
    | Paths.Streamed fr as wd ->
      let extra = inst.Lacr_core.Build.pin_constraints in
      let mp = Feasibility.min_period ~extra g wd in
      let t_init = Graph.clock_period g in
      let period = planner_t_clk ~t_init ~t_min:mp.Feasibility.period in
      List.iter
        (fun prune ->
          let label what = Printf.sprintf "%s (prune=%b)" what prune in
          let full = Paths.source_pass_flat ~prune g ~period in
          let gated = Paths.source_pass_flat ~frontier:fr ~prune g ~period in
          check (label "identical rows") true
            (gated.Paths.sr_off = full.Paths.sr_off
            && gated.Paths.sr_dst = full.Paths.sr_dst
            && gated.Paths.sr_wgt = full.Paths.sr_wgt);
          check_int (label "candidate count") full.Paths.sr_candidates gated.Paths.sr_candidates;
          check_int (label "full pass sweeps every source") (Graph.num_vertices g)
            full.Paths.sr_scanned;
          check (label "gated pass sweeps fewer sources") true
            (gated.Paths.sr_scanned < full.Paths.sr_scanned))
        [ false; true ])

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_parallel_wd_bit_identical;
      QCheck_alcotest.to_alcotest prop_parallel_wd_odd_pool;
      Alcotest.test_case "pooled constraint generation identical" `Quick
        test_pooled_constraints_identical;
      Alcotest.test_case "pooled LAC outcome identical" `Quick test_pooled_lac_outcome_identical;
      QCheck_alcotest.to_alcotest prop_stream_dense_identical;
      Alcotest.test_case "stream candidate delays match dense" `Quick
        test_stream_distinct_delays_candidates;
      Alcotest.test_case "distinct delays int-key window sort" `Quick test_distinct_delays_keys;
      Alcotest.test_case "streamed frontier structure" `Quick test_stream_frontier_shape;
      QCheck_alcotest.to_alcotest prop_flat_matches_reference_list;
      Alcotest.test_case "flat == reference list on ISCAS pins" `Slow
        test_flat_matches_reference_on_iscas;
      QCheck_alcotest.to_alcotest prop_stream_probes_outside_window;
      Alcotest.test_case "min-period candidates inside the frontier window" `Quick
        test_min_period_candidates_in_window;
      Alcotest.test_case "frontier gate skips constraint-free sources" `Quick
        test_frontier_gate_skips_sources;
    ]

(* --- the cycle-ratio bound closed through the pinned I/O --- *)

(* Pin constraints tying each listed vertex to the host, as
   [Graph.io_pin_constraints] writes them. *)
let pins_of g vs =
  let host = Graph.host g in
  List.concat_map
    (fun v ->
      [
        { Lacr_mcmf.Difference.a = v; b = host; bound = 0 };
        { Lacr_mcmf.Difference.a = host; b = v; bound = 0 };
      ])
    vs

(* A random graph, half the time with fractional delays, pinning a
   random subset of its non-host vertices; a one-sided host constraint
   that pins nothing rides along. *)
let pinned_graph (n, seed) =
  let rng = Rng.create seed in
  let g = random_graph rng n in
  let g =
    if Rng.bool rng then g
    else
      Graph.create
        ~delays:(Array.init n (fun v -> if v = 0 then 0.0 else 0.5 +. Rng.float rng 5.0))
        ~edges:(Array.to_list (Graph.edges g)) ~host:0
  in
  let pinned = List.filter (fun _ -> Rng.bool rng) (List.init (n - 1) (fun i -> i + 1)) in
  let one_sided = { Lacr_mcmf.Difference.a = 1 + Rng.int rng (n - 1); b = 0; bound = 0 } in
  (g, pinned, one_sided :: pins_of g pinned)

let pinned_gen =
  QCheck2.Gen.(
    let* n = int_range 3 8 in
    let* seed = int_range 0 1_000_000 in
    return (n, seed))

(* The largest vertex delay and every simple cycle's ratio in the graph
   closed through a zero-delay hub over [pinned], each cycle enumerated
   once from its smallest vertex. *)
let brute_force_cycle_ratio g pinned =
  let n = Graph.num_vertices g in
  let hub = n in
  let out = Array.make (n + 1) [] in
  Array.iter
    (fun (e : Graph.edge) -> out.(e.Graph.src) <- (e.Graph.dst, e.Graph.weight) :: out.(e.Graph.src))
    (Graph.edges g);
  List.iter
    (fun p ->
      out.(hub) <- (p, 0) :: out.(hub);
      out.(p) <- (hub, 1) :: out.(p))
    pinned;
  let delay v = if v = hub then 0.0 else Graph.delay g v in
  let best = ref 0.0 in
  for v = 0 to n - 1 do
    best := Float.max !best (delay v)
  done;
  let on_path = Array.make (n + 1) false in
  for s = 0 to n do
    let rec walk v d w =
      List.iter
        (fun (y, wy) ->
          if y = s then best := Float.max !best (d /. float_of_int (w + wy))
          else if y > s && not on_path.(y) then begin
            on_path.(y) <- true;
            walk y (d +. delay y) (w + wy);
            on_path.(y) <- false
          end)
        out.(v)
    in
    on_path.(s) <- true;
    walk s (delay s) 0;
    on_path.(s) <- false
  done;
  !best

let prop_howard_matches_brute_force =
  QCheck2.Test.make ~count:300
    ~name:"Howard's bound equals the brute-force cycle ratio (pinned and unpinned)" pinned_gen
    (fun params ->
      let g, pinned, extra = pinned_graph params in
      let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b) in
      close (Paths.cycle_ratio_lower_bound g) (brute_force_cycle_ratio g [])
      && close (Paths.cycle_ratio_lower_bound ~extra g) (brute_force_cycle_ratio g pinned))

let prop_closed_bound_keeps_min_period =
  QCheck2.Test.make ~count:150
    ~name:"closed bound stays below the pinned T_min, which the closed window keeps" pinned_gen
    (fun params ->
      let g, _, extra = pinned_graph params in
      let closed = Paths.compute ~extra g and unclosed = Paths.compute g in
      let bound =
        match closed with
        | Paths.Streamed fr -> fr.Paths.fbound
        | Paths.Dense _ -> Alcotest.fail "the default backend must stream"
      in
      let mp = Feasibility.min_period ~extra g closed in
      let mp_unclosed = Feasibility.min_period ~extra g unclosed in
      let mp_dense = Feasibility.min_period ~extra g (Paths.compute ~mode:Paths.Mode.Dense g) in
      bound <= mp.Feasibility.period +. Paths.period_tol
      && Float.equal mp.Feasibility.period mp_unclosed.Feasibility.period
      && mp.Feasibility.labels = mp_unclosed.Feasibility.labels
      && Float.equal mp.Feasibility.period mp_dense.Feasibility.period
      && mp.Feasibility.labels = mp_dense.Feasibility.labels)

(* The planner's graph and pins for a suite circuit. *)
let planner_graph name =
  match Lacr_core.Build.build (Option.get (Lacr_circuits.Suite.by_name name)) with
  | Error msg -> Alcotest.failf "%s build: %s" name msg
  | Ok inst -> (inst.Lacr_core.Build.graph, inst.Lacr_core.Build.pin_constraints)

let streamed = function
  | Paths.Streamed fr -> fr
  | Paths.Dense _ -> Alcotest.fail "the default backend must stream"

let test_s526_bound_is_t_min () =
  (* s526's critical cycle runs through the host, and its ratio is
     summed in the order its D value is: the bound is T_min itself. *)
  let g, extra = planner_graph "s526" in
  let wd = Paths.compute ~extra g in
  let fr = streamed wd in
  let mp = Feasibility.min_period ~extra g wd in
  check_int "pinned vertices" (List.length extra / 2) (Array.length fr.Paths.fpinned);
  check "bound = T_min bit for bit" true
    (Int64.equal (Int64.bits_of_float fr.Paths.fbound) (Int64.bits_of_float mp.Feasibility.period));
  check "unclosed bound is lower" true (Paths.cycle_ratio_lower_bound g < fr.Paths.fbound)

let test_s1423_frontier_pairs () =
  (* 878 424 pairs at the unclosed bound, 66 496 at the closed one. *)
  let g, extra = planner_graph "s1423" in
  let fr = streamed (Paths.compute ~extra g) in
  let pairs = fr.Paths.row_off.(fr.Paths.fn) in
  if pairs >= 100_000 then Alcotest.failf "s1423 frontier keeps %d pairs (fewer than 100000)" pairs

let test_min_period_refuses_unpinned_extra () =
  (* A frontier closed over pins searches from the pinned bound; a
     search that leaves a pinned vertex free must be refused, and a
     search pinning more than the frontier is accepted. *)
  let g, extra = planner_graph "s27" in
  let closed = Paths.compute ~extra g in
  let raises extra =
    match Feasibility.min_period ~extra g closed with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check "no pins refused" true (raises []);
  check "one pin dropped refused" true (raises (List.tl (List.tl extra)));
  check "same pins accepted" false (raises extra);
  let fewer = pins_of g [ (streamed closed).Paths.fpinned.(0) ] in
  let wd = Paths.compute ~extra:fewer g in
  check "more pins accepted" true
    (match Feasibility.min_period ~extra g wd with _ -> true | exception Invalid_argument _ -> false)

let suite =
  suite
  @ [
      QCheck_alcotest.to_alcotest prop_howard_matches_brute_force;
      QCheck_alcotest.to_alcotest prop_closed_bound_keeps_min_period;
      Alcotest.test_case "s526 closed bound equals T_min" `Quick test_s526_bound_is_t_min;
      Alcotest.test_case "s1423 closed frontier under 100000 pairs" `Quick
        test_s1423_frontier_pairs;
      Alcotest.test_case "min-period refuses a frontier closed over unpinned vertices" `Quick
        test_min_period_refuses_unpinned_extra;
    ]
