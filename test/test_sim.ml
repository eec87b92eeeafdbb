(* Simulator tests, culminating in the functional cross-check of the
   whole retiming stack: on feed-forward circuits, a legal retiming
   must produce identical output streams once the pipeline has been
   warmed up (interface latency is pinned, so no alignment shift is
   needed). *)

module Netlist = Lacr_netlist.Netlist
module Gate = Lacr_netlist.Gate
module Seqview = Lacr_netlist.Seqview
module Sim = Lacr_netlist.Sim
module Graph = Lacr_retime.Graph
module Paths = Lacr_retime.Paths
module Feasibility = Lacr_retime.Feasibility
module Constraints = Lacr_retime.Constraints
module Min_area = Lacr_retime.Min_area
module Rng = Lacr_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let view_of netlist =
  match Seqview.of_netlist netlist with
  | Ok v -> v
  | Error msg -> Alcotest.failf "seqview: %s" msg

let build steps =
  let b = Netlist.Builder.create ~name:"sim" in
  steps b;
  match Netlist.Builder.finish b with
  | Ok n -> n
  | Error msg -> Alcotest.failf "builder: %s" msg

(* --- basic semantics --- *)

let test_buffer_chain_latency () =
  (* in -> dff -> dff -> out : latency 2. *)
  let n =
    build (fun b ->
        Netlist.Builder.add_input b "in";
        Netlist.Builder.add_gate b "g" Gate.Buf [ "in" ];
        Netlist.Builder.add_dff b "q1" ~data:"g";
        Netlist.Builder.add_dff b "q2" ~data:"q1";
        Netlist.Builder.add_gate b "out" Gate.Buf [ "q2" ];
        Netlist.Builder.mark_output b "out")
  in
  let sim = Sim.create (view_of n) in
  check_int "two registers" 2 (Sim.total_registers sim);
  let feed x = (Sim.step sim [| x |]).(0) in
  (* Initial register contents are false. *)
  check "cycle0 sees init" false (feed true);
  check "cycle1 sees init" false (feed true);
  check "cycle2 sees first input" true (feed false);
  check "cycle3 sees second input" true (feed false);
  check "cycle4 sees third input" false (feed false)

let test_gate_functions () =
  let cases =
    [
      (Gate.And, [ true; true ], true);
      (Gate.And, [ true; false ], false);
      (Gate.Nand, [ true; true ], false);
      (Gate.Or, [ false; false ], false);
      (Gate.Nor, [ false; false ], true);
      (Gate.Xor, [ true; true ], false);
      (Gate.Xor, [ true; false ], true);
      (Gate.Xnor, [ true; false ], false);
      (Gate.Not, [ true ], false);
      (Gate.Buf, [ true ], true);
    ]
  in
  List.iter
    (fun (kind, input_values, expected) ->
      let arity = List.length input_values in
      let n =
        build (fun b ->
            for i = 0 to arity - 1 do
              Netlist.Builder.add_input b (Printf.sprintf "i%d" i)
            done;
            Netlist.Builder.add_gate b "g" kind
              (List.init arity (Printf.sprintf "i%d"));
            Netlist.Builder.mark_output b "g")
      in
      let sim = Sim.create (view_of n) in
      let out = Sim.step sim (Array.of_list input_values) in
      if out.(0) <> expected then
        Alcotest.failf "%s mis-evaluated" (Gate.to_string kind))
    cases

let test_feedback_toggle () =
  (* q = DFF(not q): a toggle flip-flop, period-2 output. *)
  let n =
    build (fun b ->
        Netlist.Builder.add_input b "en";
        Netlist.Builder.add_gate b "inv" Gate.Not [ "q" ];
        Netlist.Builder.add_dff b "q" ~data:"inv";
        Netlist.Builder.add_gate b "out" Gate.And [ "q"; "en" ];
        Netlist.Builder.mark_output b "out")
  in
  let sim = Sim.create (view_of n) in
  let outs = Sim.run sim (List.init 6 (fun _ -> [| true |])) in
  let bits = List.map (fun o -> o.(0)) outs in
  check "toggles" true (bits = [ false; true; false; true; false; true ])

let test_reset () =
  let n =
    build (fun b ->
        Netlist.Builder.add_input b "in";
        Netlist.Builder.add_gate b "g" Gate.Buf [ "in" ];
        Netlist.Builder.add_dff b "q" ~data:"g";
        Netlist.Builder.add_gate b "out" Gate.Buf [ "q" ];
        Netlist.Builder.mark_output b "out")
  in
  let sim = Sim.create (view_of n) in
  ignore (Sim.step sim [| true |]);
  check "state loaded" true (Sim.step sim [| false |]).(0);
  Sim.reset sim;
  ignore (Sim.step sim [| false |]);
  check "state cleared" false (Sim.step sim [| false |]).(0)

let test_weight_override () =
  (* Same netlist, simulated with an extra pipeline stage injected on
     one edge via the weight override. *)
  let n =
    build (fun b ->
        Netlist.Builder.add_input b "in";
        Netlist.Builder.add_gate b "g" Gate.Buf [ "in" ];
        Netlist.Builder.mark_output b "g")
  in
  let view = view_of n in
  let weights = Array.map (fun (e : Seqview.edge) -> e.Seqview.weight + 1) view.Seqview.edges in
  let sim = Sim.create ~weights view in
  check "delayed by overrides" false (Sim.step sim [| true |]).(0)

(* --- random feed-forward pipelines --- *)

(* [width] parallel lanes, [depth] stages; registers between random
   stages; mixing gates inside stages; no feedback. *)
let random_pipeline rng ~width ~depth =
  build (fun b ->
      for i = 0 to width - 1 do
        Netlist.Builder.add_input b (Printf.sprintf "pi%d" i)
      done;
      let prev = ref (List.init width (Printf.sprintf "pi%d")) in
      for stage = 1 to depth do
        let arr = Array.of_list !prev in
        let next = ref [] in
        for lane = 0 to width - 1 do
          let a = arr.(Rng.int rng width) and c = arr.(Rng.int rng width) in
          let kind = Rng.choose rng [| Gate.And; Gate.Or; Gate.Xor; Gate.Nand; Gate.Nor |] in
          let gname = Printf.sprintf "s%d_%d" stage lane in
          Netlist.Builder.add_gate b gname kind [ a; c ];
          if Rng.int rng 100 < 40 then begin
            let qname = Printf.sprintf "q%d_%d" stage lane in
            Netlist.Builder.add_dff b qname ~data:gname;
            next := qname :: !next
          end
          else next := gname :: !next
        done;
        prev := !next
      done;
      List.iteri
        (fun i signal ->
          let oname = Printf.sprintf "po%d" i in
          Netlist.Builder.add_gate b oname Gate.Buf [ signal ];
          Netlist.Builder.mark_output b oname)
        !prev)

let random_trace rng ~width ~len = List.init len (fun _ -> Array.init width (fun _ -> Rng.bool rng))

let equal_after_warmup warmup outs1 outs2 =
  let rec go i a b =
    match (a, b) with
    | [], [] -> true
    | x :: xs, y :: ys -> (i < warmup || x = y) && go (i + 1) xs ys
    | _ -> false
  in
  go 0 outs1 outs2

(* Retime a feed-forward circuit at the netlist level and check the
   output streams agree after warm-up. *)
let check_retiming_equivalence rng view labels =
  let n_units = Seqview.num_units view in
  let retimed_weights =
    Array.map
      (fun (e : Seqview.edge) ->
        e.Seqview.weight + labels.(e.Seqview.dst) - labels.(e.Seqview.src))
      view.Seqview.edges
  in
  Array.iter (fun w -> if w < 0 then Alcotest.fail "illegal retimed weight") retimed_weights;
  let sim1 = Sim.create view in
  let sim2 = Sim.create ~weights:retimed_weights view in
  let warmup = max (Sim.warmup_bound sim1) (Sim.warmup_bound sim2) in
  let width = List.length view.Seqview.primary_inputs in
  let trace = random_trace rng ~width ~len:(warmup + 24) in
  let outs1 = Sim.run sim1 trace and outs2 = Sim.run sim2 trace in
  ignore n_units;
  if not (equal_after_warmup warmup outs1 outs2) then
    Alcotest.fail "retimed circuit diverges after warm-up"

let prop_min_period_retiming_equivalent =
  QCheck2.Test.make ~count:25
    ~name:"min-period retiming preserves pipeline behaviour (simulation)"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let netlist = random_pipeline rng ~width:(3 + Rng.int rng 3) ~depth:(3 + Rng.int rng 4) in
      let view = view_of netlist in
      let g = Graph.of_seqview view in
      let extra = Graph.io_pin_constraints view ~host:(Graph.host g) in
      let wd = Paths.compute g in
      let mp = Feasibility.min_period ~extra g wd in
      check_retiming_equivalence rng view mp.Feasibility.labels;
      true)

let prop_min_area_retiming_equivalent =
  QCheck2.Test.make ~count:25
    ~name:"min-area retiming preserves pipeline behaviour (simulation)"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let netlist = random_pipeline rng ~width:(3 + Rng.int rng 3) ~depth:(3 + Rng.int rng 4) in
      let view = view_of netlist in
      let g = Graph.of_seqview view in
      let extra = Graph.io_pin_constraints view ~host:(Graph.host g) in
      let wd = Paths.compute g in
      let mp = Feasibility.min_period ~extra g wd in
      let period = mp.Feasibility.period +. 0.5 in
      let cs = Constraints.generate ~prune:true ~extra g wd ~period in
      match Min_area.solve g cs with
      | Error msg -> Alcotest.fail msg
      | Ok solution ->
        check_retiming_equivalence rng view solution.Min_area.labels;
        true)

let test_planner_labels_equivalent_on_pipeline () =
  (* End-to-end: the full planner's LAC labels, restricted to the
     functional units, are a legal netlist-level retiming whose
     behaviour matches the original circuit. *)
  let rng = Rng.create 77 in
  let netlist = random_pipeline rng ~width:5 ~depth:6 in
  match Lacr_core.Planner.plan_checked ~second_iteration:false netlist with
  | Error e -> Alcotest.failf "plan: %s" (Lacr_core.Planner.error_message e)
  | Ok run ->
    let view = run.Lacr_core.Planner.instance.Lacr_core.Build.view in
    let labels = run.Lacr_core.Planner.lac.Lacr_core.Lac.labels in
    let unit_labels = Array.sub labels 0 (Seqview.num_units view) in
    check_retiming_equivalence rng view unit_labels

let suite =
  [
    Alcotest.test_case "buffer chain latency" `Quick test_buffer_chain_latency;
    Alcotest.test_case "gate functions" `Quick test_gate_functions;
    Alcotest.test_case "feedback toggle" `Quick test_feedback_toggle;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "weight override" `Quick test_weight_override;
    QCheck_alcotest.to_alcotest prop_min_period_retiming_equivalent;
    QCheck_alcotest.to_alcotest prop_min_area_retiming_equivalent;
    Alcotest.test_case "planner labels equivalent on pipeline" `Slow
      test_planner_labels_equivalent_on_pipeline;
  ]

(* --- netlist reconstruction (Rebuild) --- *)

module Rebuild = Lacr_netlist.Rebuild
module Bench_io = Lacr_netlist.Bench_io

let exact_match outs1 outs2 =
  List.length outs1 = List.length outs2 && List.for_all2 ( = ) outs1 outs2

let test_rebuild_identity_round_trip () =
  let netlist = Lacr_circuits.Suite.s27 () in
  let view = view_of netlist in
  let weights = Array.map (fun (e : Seqview.edge) -> e.Seqview.weight) view.Seqview.edges in
  match Rebuild.with_weights netlist view weights with
  | Error msg -> Alcotest.failf "rebuild: %s" msg
  | Ok rebuilt ->
    check_int "ff count preserved" (Netlist.num_dffs netlist) (Netlist.num_dffs rebuilt);
    let rng = Rng.create 5 in
    let width = Netlist.num_inputs netlist in
    let trace = random_trace rng ~width ~len:40 in
    let sim1 = Sim.create view in
    let sim2 = Sim.create (view_of rebuilt) in
    check "identical streams" true (exact_match (Sim.run sim1 trace) (Sim.run sim2 trace))

let test_rebuild_matches_weight_override () =
  (* Rebuilding a retimed netlist and overriding simulator weights are
     two routes to the same machine: outputs must agree cycle-exactly
     (both start all-false). *)
  let rng = Rng.create 321 in
  for _trial = 1 to 10 do
    let netlist = random_pipeline rng ~width:4 ~depth:5 in
    let view = view_of netlist in
    let g = Graph.of_seqview view in
    let extra = Graph.io_pin_constraints view ~host:(Graph.host g) in
    let wd = Paths.compute g in
    let mp = Feasibility.min_period ~extra g wd in
    let labels = Array.sub mp.Feasibility.labels 0 (Seqview.num_units view) in
    match Rebuild.of_labels netlist view labels with
    | Error msg -> Alcotest.failf "rebuild: %s" msg
    | Ok rebuilt ->
      (match Netlist.validate rebuilt with
      | Error msg -> Alcotest.failf "rebuilt netlist invalid: %s" msg
      | Ok () -> ());
      let retimed_weights =
        Array.map
          (fun (e : Seqview.edge) ->
            e.Seqview.weight + labels.(e.Seqview.dst) - labels.(e.Seqview.src))
          view.Seqview.edges
      in
      let width = Netlist.num_inputs netlist in
      let trace = random_trace rng ~width ~len:30 in
      let sim_override = Sim.create ~weights:retimed_weights view in
      let sim_rebuilt = Sim.create (view_of rebuilt) in
      check "cycle-exact equivalence" true
        (exact_match (Sim.run sim_override trace) (Sim.run sim_rebuilt trace));
      (* The rebuilt netlist survives a .bench round trip. *)
      (match Bench_io.parse_string ~name:"rt" (Bench_io.to_string rebuilt) with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "rebuilt .bench does not reparse: %s" msg)
  done

let test_rebuild_rejects_illegal () =
  let netlist = Lacr_circuits.Suite.s27 () in
  let view = view_of netlist in
  let labels = Array.make (Seqview.num_units view) 0 in
  (* Force a negative weight by pulling one register across a
     zero-weight edge backwards. *)
  (match
     Array.to_list view.Seqview.edges
     |> List.find_opt (fun (e : Seqview.edge) -> e.Seqview.weight = 0 && e.Seqview.src <> e.Seqview.dst)
   with
  | Some e -> labels.(e.Seqview.dst) <- -1
  | None -> Alcotest.fail "expected a zero-weight edge");
  match Rebuild.of_labels netlist view labels with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected illegal retiming rejection"

let rebuild_suite =
  [
    Alcotest.test_case "rebuild identity round trip" `Quick test_rebuild_identity_round_trip;
    Alcotest.test_case "rebuild matches weight override" `Quick test_rebuild_matches_weight_override;
    Alcotest.test_case "rebuild rejects illegal retiming" `Quick test_rebuild_rejects_illegal;
  ]

let suite = suite @ rebuild_suite

let test_rebuild_shares_registers () =
  (* The rebuilt netlist instantiates max-shared chains: its DFF count
     equals Min_area.shared_registers of the labelling. *)
  let rng = Rng.create 99 in
  for _trial = 1 to 8 do
    let netlist = random_pipeline rng ~width:4 ~depth:5 in
    let view = view_of netlist in
    let g = Graph.of_seqview view in
    let extra = Graph.io_pin_constraints view ~host:(Graph.host g) in
    let wd = Paths.compute g in
    let mp = Feasibility.min_period ~extra g wd in
    let labels = mp.Feasibility.labels in
    let unit_labels = Array.sub labels 0 (Seqview.num_units view) in
    match Rebuild.of_labels netlist view unit_labels with
    | Error msg -> Alcotest.failf "rebuild: %s" msg
    | Ok rebuilt ->
      check_int "dffs = shared registers" (Min_area.shared_registers g labels)
        (Netlist.num_dffs rebuilt)
  done

let suite = suite @ [ Alcotest.test_case "rebuild shares registers" `Quick test_rebuild_shares_registers ]

(* --- VCD export --- *)

module Vcd = Lacr_netlist.Vcd

let test_vcd_export () =
  let n =
    build (fun b ->
        Netlist.Builder.add_input b "a";
        Netlist.Builder.add_gate b "g" Gate.Not [ "a" ];
        Netlist.Builder.add_dff b "q" ~data:"g";
        Netlist.Builder.add_gate b "out" Gate.Buf [ "q" ];
        Netlist.Builder.mark_output b "out")
  in
  let view = view_of n in
  let sim = Sim.create view in
  let vcd = Vcd.create view in
  let outs = Vcd.run_and_record vcd sim [ [| true |]; [| false |]; [| true |] ] in
  check_int "three cycles returned" 3 (List.length outs);
  let doc = Vcd.to_string vcd in
  let has needle =
    let nl = String.length needle and hl = String.length doc in
    let rec go i = i + nl <= hl && (String.sub doc i nl = needle || go (i + 1)) in
    go 0
  in
  check "header" true (has "$enddefinitions $end");
  check "declares input" true (has "$var wire 1 ! a $end");
  check "timestep 0" true (has "#0");
  check "final timestep" true (has "#3");
  (* Value changes only when the value changes: input a goes 1,0,1 so
     its code '!' appears three times with values. *)
  check "initial input value" true (has "1!")

let suite = suite @ [ Alcotest.test_case "vcd export" `Quick test_vcd_export ]
