(* Sanitizer tests: the enable plumbing, each invariant check on a
   clean and a corrupted input (the violation must name the right
   invariant), and the end-to-end guarantee that a sanitized plan is
   bit-identical to an unsanitized one. *)

module S = Lacr_util.Sanitize
module Graph = Lacr_retime.Graph
module Paths = Lacr_retime.Paths
module Constraints = Lacr_retime.Constraints
module Lac = Lacr_core.Lac
module Planner = Lacr_core.Planner
module Report = Lacr_core.Report
module Config = Lacr_core.Config
module Suite = Lacr_circuits.Suite

let check = Alcotest.(check bool)

let expect_violation invariant f =
  match f () with
  | _ -> Alcotest.failf "expected a %s violation" invariant
  | exception S.Violation { invariant = got; detail } ->
    Alcotest.(check string) (Printf.sprintf "invariant (%s)" detail) invariant got

let test_enable_plumbing () =
  check "disabled by default" false (S.enabled ());
  S.with_enabled true (fun () -> check "with_enabled true" true (S.enabled ()));
  check "restored after with_enabled" false (S.enabled ());
  (match S.with_enabled true (fun () -> failwith "boom") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  check "restored after raise" false (S.enabled ());
  expect_violation "unit.test" (fun () -> S.fail ~invariant:"unit.test" "detail")

(* --- CSR well-formedness --- *)

let good_csr () = (3, 3, [| 0; 2; 3; 3 |], [| 1; 2; 0 |])

let test_csr () =
  let n, m, offsets, targets = good_csr () in
  S.check_csr ~invariant:"graph.csr" ~n ~m ~offsets ~targets ~max_target:n;
  expect_violation "graph.csr" (fun () ->
      (* non-monotone offsets *)
      S.check_csr ~invariant:"graph.csr" ~n ~m ~offsets:[| 0; 2; 1; 3 |] ~targets ~max_target:n);
  expect_violation "graph.csr" (fun () ->
      (* last offset does not cover every edge *)
      S.check_csr ~invariant:"graph.csr" ~n ~m ~offsets:[| 0; 2; 3; 2 |] ~targets ~max_target:n);
  expect_violation "graph.csr" (fun () ->
      (* target out of range *)
      S.check_csr ~invariant:"graph.csr" ~n ~m ~offsets ~targets:[| 1; 5; 0 |] ~max_target:n)

(* --- flow conservation and admissibility --- *)

let test_flow_conservation () =
  (* One unit 0 -> 1 satisfying supply (+1, -1). *)
  let src = [| 0 |] and dst = [| 1 |] in
  let good = [| 1.0 |] and supply = [| 1.0; -1.0 |] in
  let run flow =
    S.check_flow_conservation ~invariant:"mcmf.conservation" ~n:2 ~n_handles:1
      ~src:(fun k -> src.(k)) ~dst:(fun k -> dst.(k)) ~flow:(fun k -> flow.(k))
      ~supply:(fun v -> supply.(v)) ~tol:1e-6
  in
  run good;
  expect_violation "mcmf.conservation" (fun () -> run [| 2.0 |]);
  expect_violation "mcmf.conservation" (fun () -> run [| -1.0 |])

let test_admissibility () =
  let src = [| 0 |] and dst = [| 1 |] in
  let run ~cost ~pi =
    S.check_admissibility ~invariant:"mcmf.admissible" ~n_arcs:1
      ~src:(fun a -> src.(a)) ~dst:(fun a -> dst.(a)) ~cost:(fun _ -> cost)
      ~residual:(fun _ -> 1.0) ~pi ~eps:1e-9
  in
  (* reduced cost = cost + pi(src) - pi(dst) *)
  run ~cost:1 ~pi:[| 0; 0 |];
  run ~cost:(-1) ~pi:[| 2; 0 |];
  expect_violation "mcmf.admissible" (fun () -> run ~cost:(-1) ~pi:[| 0; 0 |])

(* --- retiming cycle sums --- *)

let test_cycle_sums () =
  (* Triangle 0 -> 1 -> 2 -> 0 carrying one flip-flop; moving it is
     legal, creating or losing one is not. *)
  let src = [| 0; 1; 2 |] and dst = [| 1; 2; 0 |] in
  let w_before = [| 1; 0; 0 |] in
  let run w_after =
    S.check_cycle_sums ~invariant:"retime.cycle_sum" ~n:3 ~src ~dst ~w_before ~w_after
  in
  run [| 1; 0; 0 |];
  run [| 0; 1; 0 |] (* the retiming r = [0;-1;0] *);
  expect_violation "retime.cycle_sum" (fun () -> run [| 1; 1; 0 |]);
  expect_violation "retime.cycle_sum" (fun () -> run [| 0; 0; 0 |])

(* --- end-to-end: the sanitized pipeline accepts clean runs --- *)

let saturated_problem () =
  let g =
    Graph.create
      ~delays:[| 1.0; 1.0; 0.0 |]
      ~edges:[ { Graph.src = 0; dst = 1; weight = 1 }; { Graph.src = 1; dst = 0; weight = 1 } ]
      ~host:2
  in
  {
    Lacr_core.Problem.graph = g;
    vertex_tile = [| 0; 0; -1 |];
    n_tiles = 1;
    capacity = [| 0.0 |];
    ff_area = 1.0;
    interconnect = [| false; false; false |];
  }

let test_lac_clean_under_sanitizer () =
  let p = saturated_problem () in
  let wd = Paths.compute p.Lacr_core.Problem.graph in
  let cs = Constraints.generate p.Lacr_core.Problem.graph wd ~period:10.0 in
  let solve () =
    match Lac.retime_problem ~n_max:2 ~max_wr:5 p cs with
    | Ok { Lac.lac = o; _ } -> (o.Lac.labels, o.Lac.n_foa, o.Lac.n_f, o.Lac.n_wr)
    | Error msg -> Alcotest.failf "retime: %s" msg
  in
  let plain = solve () in
  let sanitized = S.with_enabled true solve in
  check "sanitized run bit-identical" true (plain = sanitized)

let plan_fingerprint ~sanitize netlist =
  let config = { Config.default with Config.sanitize } in
  match Planner.plan_checked ~config netlist with
  | Error e -> Alcotest.failf "plan: %s" (Planner.error_message e)
  | Ok run ->
    (* Wall-clock columns vary run to run regardless of the sanitizer;
       zero them so the comparison pins every solver-derived field. *)
    let row = { (Report.row_of_run ~name:"c" run) with Report.ma_exec = 0.0; lac_exec = 0.0 } in
    (Array.to_list run.Planner.lac.Lac.labels, Report.csv_row row)

let check_plan_identity netlist =
  let labels, row = plan_fingerprint ~sanitize:false netlist in
  let labels', row' = plan_fingerprint ~sanitize:true netlist in
  Alcotest.(check (list int)) "labels bit-identical" labels labels';
  Alcotest.(check (list string)) "report row bit-identical" row row'

let test_plan_identity_s27 () = check_plan_identity (Suite.s27 ())

let test_plan_identity_s386 () =
  match Suite.by_name "s386" with
  | Some netlist -> check_plan_identity netlist
  | None -> Alcotest.fail "s386 missing from the suite"

let suite =
  [
    Alcotest.test_case "enable plumbing" `Quick test_enable_plumbing;
    Alcotest.test_case "CSR corruption caught" `Quick test_csr;
    Alcotest.test_case "flow conservation corruption caught" `Quick test_flow_conservation;
    Alcotest.test_case "admissibility corruption caught" `Quick test_admissibility;
    Alcotest.test_case "retiming cycle-sum corruption caught" `Quick test_cycle_sums;
    Alcotest.test_case "LAC clean under sanitizer" `Quick test_lac_clean_under_sanitizer;
    Alcotest.test_case "sanitized s27 plan bit-identical" `Slow test_plan_identity_s27;
    Alcotest.test_case "sanitized s386 plan bit-identical" `Slow test_plan_identity_s386;
  ]
