(* Tests for the min-cost-flow solver and the difference-constraint LP
   built on it.  The optimizer is checked against brute-force
   enumeration on randomly generated small systems: this pins down the
   LP-duality sign conventions that min-area retiming relies on. *)

module Mcmf = Lacr_mcmf.Mcmf
module Difference = Lacr_mcmf.Difference
module Rng = Lacr_util.Rng

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-6))
let check_int = Alcotest.(check int)

(* --- plain flow tests ------------------------------------------------ *)

let test_single_arc () =
  let p = Mcmf.create 2 in
  let a = Mcmf.add_arc p ~src:0 ~dst:1 ~capacity:10.0 ~cost:3 in
  Mcmf.set_supply p 0 4.0;
  Mcmf.set_supply p 1 (-4.0);
  match Mcmf.solve p with
  | Error e -> Alcotest.failf "unexpected error: %s" (Mcmf.error_to_string e)
  | Ok () ->
    check_float "cost" 12.0 (Mcmf.total_cost p);
    check_float "flow" 4.0 (Mcmf.flow_on p a)

let test_two_paths_prefers_cheap () =
  (* 0 -> 1 (cost 1, cap 3) and 0 -> 2 -> 1 (cost 2+2, cap inf): send 5. *)
  let p = Mcmf.create 3 in
  let cheap = Mcmf.add_arc p ~src:0 ~dst:1 ~capacity:3.0 ~cost:1 in
  let leg1 = Mcmf.add_arc p ~src:0 ~dst:2 ~capacity:infinity ~cost:2 in
  let leg2 = Mcmf.add_arc p ~src:2 ~dst:1 ~capacity:infinity ~cost:2 in
  Mcmf.set_supply p 0 5.0;
  Mcmf.set_supply p 1 (-5.0);
  match Mcmf.solve p with
  | Error e -> Alcotest.failf "unexpected error: %s" (Mcmf.error_to_string e)
  | Ok () ->
    check_float "cheap saturated" 3.0 (Mcmf.flow_on p cheap);
    check_float "detour leg1" 2.0 (Mcmf.flow_on p leg1);
    check_float "detour leg2" 2.0 (Mcmf.flow_on p leg2);
    check_float "cost" (3.0 +. 8.0) (Mcmf.total_cost p)

let test_negative_cost_arc () =
  let p = Mcmf.create 3 in
  let _ = Mcmf.add_arc p ~src:0 ~dst:1 ~capacity:2.0 ~cost:(-5) in
  let _ = Mcmf.add_arc p ~src:1 ~dst:2 ~capacity:2.0 ~cost:1 in
  Mcmf.set_supply p 0 2.0;
  Mcmf.set_supply p 2 (-2.0);
  match Mcmf.solve p with
  | Error e -> Alcotest.failf "unexpected error: %s" (Mcmf.error_to_string e)
  | Ok () -> check_float "cost" (-8.0) (Mcmf.total_cost p)

let test_unbalanced_detected () =
  let p = Mcmf.create 2 in
  let _ = Mcmf.add_arc p ~src:0 ~dst:1 ~capacity:1.0 ~cost:0 in
  Mcmf.set_supply p 0 1.0;
  match Mcmf.solve p with
  | Error (Mcmf.Unbalanced _) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Mcmf.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Unbalanced"

let test_infeasible_detected () =
  (* No arc reaches the deficit. *)
  let p = Mcmf.create 3 in
  let _ = Mcmf.add_arc p ~src:0 ~dst:1 ~capacity:5.0 ~cost:1 in
  Mcmf.set_supply p 0 1.0;
  Mcmf.set_supply p 2 (-1.0);
  match Mcmf.solve p with
  | Error Mcmf.Infeasible -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Mcmf.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Infeasible"

let test_negative_cycle_detected () =
  let p = Mcmf.create 2 in
  let _ = Mcmf.add_arc p ~src:0 ~dst:1 ~capacity:infinity ~cost:(-1) in
  let _ = Mcmf.add_arc p ~src:1 ~dst:0 ~capacity:infinity ~cost:0 in
  match Mcmf.solve p with
  | Error Mcmf.Negative_cycle -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Mcmf.error_to_string e)
  | Ok _ -> Alcotest.fail "expected Negative_cycle"

let test_conservation_random () =
  (* On random feasible instances, in-flow minus out-flow matches the
     supply at every node. *)
  let rng = Rng.create 42 in
  for _trial = 1 to 25 do
    let n = 2 + Rng.int rng 6 in
    let p = Mcmf.create n in
    let arcs = ref [] in
    (* A Hamiltonian backbone guarantees feasibility. *)
    for v = 0 to n - 2 do
      arcs := (v, v + 1, Mcmf.add_arc p ~src:v ~dst:(v + 1) ~capacity:infinity ~cost:(Rng.int rng 5)) :: !arcs;
      arcs := (v + 1, v, Mcmf.add_arc p ~src:(v + 1) ~dst:v ~capacity:infinity ~cost:(Rng.int rng 5)) :: !arcs
    done;
    for _extra = 1 to n do
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v then
        arcs := (u, v, Mcmf.add_arc p ~src:u ~dst:v ~capacity:(float_of_int (1 + Rng.int rng 9)) ~cost:(Rng.int rng 7)) :: !arcs
    done;
    let supplies = Array.make n 0.0 in
    for v = 0 to n - 2 do
      let s = float_of_int (Rng.int_in rng (-3) 3) in
      supplies.(v) <- s
    done;
    supplies.(n - 1) <- -.Array.fold_left ( +. ) 0.0 (Array.sub supplies 0 (n - 1));
    Array.iteri (fun v s -> Mcmf.set_supply p v s) supplies;
    match Mcmf.solve p with
    | Error e -> Alcotest.failf "random instance failed: %s" (Mcmf.error_to_string e)
    | Ok () ->
      let balance = Array.make n 0.0 in
      let tally (u, v, handle) =
        let f = Mcmf.flow_on p handle in
        check "non-negative flow" true (f >= -1e-9);
        balance.(u) <- balance.(u) +. f;
        balance.(v) <- balance.(v) -. f
      in
      List.iter tally !arcs;
      Array.iteri
        (fun v b ->
          if abs_float (b -. supplies.(v)) > 1e-6 then
            Alcotest.failf "conservation violated at node %d: %f vs %f" v b supplies.(v))
        balance
  done

(* --- difference-constraint tests ------------------------------------- *)

(* The surviving API is array-based; the tests keep writing systems as
   constraint lists and convert here. *)
let arrays_of cs =
  let m = List.length cs in
  let a = Array.make m 0 and b = Array.make m 0 and bound = Array.make m 0 in
  List.iteri
    (fun i (c : Difference.constr) ->
      a.(i) <- c.Difference.a;
      b.(i) <- c.Difference.b;
      bound.(i) <- c.Difference.bound)
    cs;
  (a, b, bound, m)

let feasible ~n cs =
  let a, b, bound, m = arrays_of cs in
  Difference.feasible_arrays ~n ~a ~b ~bound ~m

let compile ~n cs =
  let a, b, bound, m = arrays_of cs in
  Difference.compile_arrays ~n ~a ~b ~bound m

(* One solve on a freshly compiled instance: always cold. *)
let optimize_fresh ~n ~objective cs =
  match compile ~n cs with Error e -> Error e | Ok inst -> Difference.reoptimize inst ~objective

let test_feasible_simple () =
  (* x0 - x1 <= -1 (x0 < x1), x1 - x0 <= 3 *)
  let cs = [ { Difference.a = 0; b = 1; bound = -1 }; { Difference.a = 1; b = 0; bound = 3 } ] in
  match feasible ~n:2 cs with
  | None -> Alcotest.fail "expected feasible"
  | Some x -> check "assignment satisfies" true (Difference.check cs x)

let test_infeasible_cycle () =
  (* x0 - x1 <= -1 and x1 - x0 <= 0 gives a negative cycle. *)
  let cs = [ { Difference.a = 0; b = 1; bound = -1 }; { Difference.a = 1; b = 0; bound = 0 } ] in
  check "infeasible" true (feasible ~n:2 cs = None)

(* Brute-force minimizer over a box, for cross-checking [reoptimize]. *)
let brute_force ~n ~objective ~range constraints =
  let best = ref None in
  let x = Array.make n 0 in
  let rec enumerate v =
    if v = n then begin
      if Difference.check constraints x then begin
        let value = ref 0.0 in
        for i = 0 to n - 1 do
          value := !value +. (objective.(i) *. float_of_int x.(i))
        done;
        match !best with
        | Some (b, _) when b <= !value -. 1e-9 -> ()
        | _ -> best := Some (!value, Array.copy x)
      end
    end
    else
      for candidate = -range to range do
        x.(v) <- candidate;
        enumerate (v + 1)
      done
  in
  (* x(0) pinned to 0, matching the optimizer's normalization. *)
  let rec enumerate_from_1 v =
    if v = n then enumerate n
    else
      for candidate = -range to range do
        x.(v) <- candidate;
        enumerate_from_1 (v + 1)
      done
  in
  x.(0) <- 0;
  if n = 1 then enumerate 1 else enumerate_from_1 1;
  !best

let objective_value objective x =
  let v = ref 0.0 in
  Array.iteri (fun i xi -> v := !v +. (objective.(i) *. float_of_int xi)) x;
  !v

let test_optimize_matches_brute_force () =
  (* Each objective is solved twice: on a fresh instance (cold) and on
     an instance already solved for another objective (warm).  Both
     must reach the brute-force optimum with identical labels. *)
  let rng = Rng.create 7 in
  for _trial = 1 to 60 do
    let n = 2 + Rng.int rng 3 in
    let n_constraints = 1 + Rng.int rng 6 in
    let constraints = ref [] in
    for _c = 1 to n_constraints do
      let a = Rng.int rng n and b = Rng.int rng n in
      if a <> b then
        constraints := { Difference.a; b; bound = Rng.int_in rng (-2) 4 } :: !constraints
    done;
    let objective = Array.init n (fun _ -> float_of_int (Rng.int_in rng (-3) 3)) in
    (* Keep the LP bounded inside the test box: close the cycle. *)
    for v = 0 to n - 1 do
      if v <> 0 then begin
        constraints := { Difference.a = v; b = 0; bound = 3 } :: !constraints;
        constraints := { Difference.a = 0; b = v; bound = 3 } :: !constraints
      end
    done;
    let cs = !constraints in
    let resolved =
      match compile ~n cs with
      | Error e -> Error e
      | Ok inst ->
        ignore (Difference.reoptimize inst ~objective:(Array.map (fun c -> -.c) objective));
        Difference.reoptimize inst ~objective
    in
    match (optimize_fresh ~n ~objective cs, resolved, brute_force ~n ~objective ~range:3 cs) with
    | Error Difference.Infeasible_constraints, Error Difference.Infeasible_constraints, None -> ()
    | Error Difference.Infeasible_constraints, _, Some _ ->
      Alcotest.fail "optimize said infeasible, brute force disagrees"
    | Error Difference.Unbounded_objective, _, _ | _, Error Difference.Unbounded_objective, _ ->
      Alcotest.fail "unexpected unbounded"
    | Ok _, _, None -> Alcotest.fail "optimize found solution, brute force says infeasible"
    | Ok x, Ok y, Some (best_value, _) ->
      if x <> y then Alcotest.fail "re-solved labels differ from a fresh instance's";
      check "solution satisfies constraints" true (Difference.check cs x);
      check_int "normalized" 0 x.(0);
      let got = objective_value objective x in
      if abs_float (got -. best_value) > 1e-6 then
        Alcotest.failf "suboptimal: got %f, brute force %f" got best_value
    | _ -> Alcotest.fail "fresh and re-solved instances disagree on outcome"
  done

let test_optimize_prefers_cheap_direction () =
  (* min x1 with 0 <= x1 - x0 <= 5 pinned at x0 = 0 gives x1 = 0;
     max x1 (objective -1) gives x1 = 5, on a fresh instance and on
     the one that just solved the min. *)
  let cs =
    [ { Difference.a = 0; b = 1; bound = 0 }; { Difference.a = 1; b = 0; bound = 5 } ]
  in
  match compile ~n:2 cs with
  | Error _ -> Alcotest.fail "compile failed"
  | Ok inst ->
    (match Difference.reoptimize inst ~objective:[| 0.0; 1.0 |] with
    | Ok x -> check_int "min x1" 0 x.(1)
    | Error _ -> Alcotest.fail "min should solve");
    (match Difference.reoptimize inst ~objective:[| 0.0; -1.0 |] with
    | Ok x -> check_int "max x1 re-solved" 5 x.(1)
    | Error _ -> Alcotest.fail "max should solve");
    match optimize_fresh ~n:2 ~objective:[| 0.0; -1.0 |] cs with
    | Ok x -> check_int "max x1" 5 x.(1)
    | Error _ -> Alcotest.fail "max should solve"

let test_optimize_real_objective () =
  (* Non-integral objective coefficients still give integral labels. *)
  let cs =
    [ { Difference.a = 1; b = 0; bound = 2 }; { Difference.a = 0; b = 1; bound = 0 } ]
  in
  match optimize_fresh ~n:2 ~objective:[| 0.0; -0.75 |] cs with
  | Ok x -> check_int "pushed to bound" 2 x.(1)
  | Error _ -> Alcotest.fail "should solve"

let suite =
  [
    Alcotest.test_case "single arc" `Quick test_single_arc;
    Alcotest.test_case "two paths prefer cheap" `Quick test_two_paths_prefers_cheap;
    Alcotest.test_case "negative cost arc" `Quick test_negative_cost_arc;
    Alcotest.test_case "unbalanced detected" `Quick test_unbalanced_detected;
    Alcotest.test_case "infeasible detected" `Quick test_infeasible_detected;
    Alcotest.test_case "negative cycle detected" `Quick test_negative_cycle_detected;
    Alcotest.test_case "conservation on random instances" `Quick test_conservation_random;
    Alcotest.test_case "difference feasible" `Quick test_feasible_simple;
    Alcotest.test_case "difference infeasible cycle" `Quick test_infeasible_cycle;
    Alcotest.test_case "optimize matches brute force" `Quick test_optimize_matches_brute_force;
    Alcotest.test_case "optimize min/max directions" `Quick test_optimize_prefers_cheap_direction;
    Alcotest.test_case "optimize real objective" `Quick test_optimize_real_objective;
  ]

(* --- capacitated instances and optimality invariants (primal-dual
   solver) ------------------------------------------------------------ *)

let test_capacitated_diamond () =
  (* Two parallel 2-arc paths; the cheap one has capacity 1, so 3
     units split 1 cheap + 2 expensive. *)
  let p = Mcmf.create 4 in
  let cheap1 = Mcmf.add_arc p ~src:0 ~dst:1 ~capacity:1.0 ~cost:1 in
  let cheap2 = Mcmf.add_arc p ~src:1 ~dst:3 ~capacity:5.0 ~cost:1 in
  let dear1 = Mcmf.add_arc p ~src:0 ~dst:2 ~capacity:5.0 ~cost:3 in
  let dear2 = Mcmf.add_arc p ~src:2 ~dst:3 ~capacity:5.0 ~cost:3 in
  Mcmf.set_supply p 0 3.0;
  Mcmf.set_supply p 3 (-3.0);
  match Mcmf.solve p with
  | Error e -> Alcotest.failf "solve: %s" (Mcmf.error_to_string e)
  | Ok () ->
    check_float "cheap path saturated" 1.0 (Mcmf.flow_on p cheap1);
    check_float "cheap tail" 1.0 (Mcmf.flow_on p cheap2);
    check_float "dear head" 2.0 (Mcmf.flow_on p dear1);
    check_float "dear tail" 2.0 (Mcmf.flow_on p dear2);
    check_float "total cost" (2.0 +. 12.0) (Mcmf.total_cost p)

(* Brute-force min-cost flow on tiny instances by enumerating integer
   flows per arc (capacities and supplies integral, <= 4 arcs). *)
let brute_force_flow ~n ~arcs ~supplies =
  let m = List.length arcs in
  let best = ref infinity in
  let flow = Array.make m 0 in
  let arcs_arr = Array.of_list arcs in
  let rec enumerate k =
    if k = m then begin
      let balance = Array.make n 0 in
      Array.iteri
        (fun i f ->
          let u, v, _, _ = arcs_arr.(i) in
          balance.(u) <- balance.(u) + f;
          balance.(v) <- balance.(v) - f)
        flow;
      let ok = ref true in
      Array.iteri (fun v b -> if b <> supplies.(v) then ok := false) balance;
      if !ok then begin
        let cost = ref 0.0 in
        Array.iteri
          (fun i f ->
            let _, _, _, c = arcs_arr.(i) in
            cost := !cost +. float_of_int (f * c))
          flow;
        if !cost < !best then best := !cost
      end
    end
    else begin
      let _, _, cap, _ = arcs_arr.(k) in
      for f = 0 to cap do
        flow.(k) <- f;
        enumerate (k + 1)
      done
    end
  in
  enumerate 0;
  !best

let test_capacitated_matches_brute_force () =
  let rng = Rng.create 9090 in
  for _trial = 1 to 40 do
    let n = 3 + Rng.int rng 2 in
    let n_arcs = 3 + Rng.int rng 2 in
    let arcs = ref [] in
    (* Backbone for feasibility. *)
    for v = 0 to n - 2 do
      arcs := (v, v + 1, 4, Rng.int rng 5) :: !arcs
    done;
    for _i = 1 to n_arcs - (n - 1) + 1 do
      let u = Rng.int rng n and v = Rng.int rng n in
      if u <> v then arcs := (u, v, 1 + Rng.int rng 3, Rng.int rng 6) :: !arcs
    done;
    let arcs = !arcs in
    let supplies = Array.make n 0 in
    supplies.(0) <- 1 + Rng.int rng 3;
    supplies.(n - 1) <- -supplies.(0);
    let p = Mcmf.create n in
    List.iter
      (fun (u, v, cap, cost) ->
        ignore (Mcmf.add_arc p ~src:u ~dst:v ~capacity:(float_of_int cap) ~cost))
      arcs;
    Array.iteri (fun v s -> Mcmf.set_supply p v (float_of_int s)) supplies;
    let brute = brute_force_flow ~n ~arcs ~supplies in
    match Mcmf.solve p with
    | Error e -> Alcotest.failf "solve: %s" (Mcmf.error_to_string e)
    | Ok () ->
      let cost = Mcmf.total_cost p in
      if abs_float (cost -. brute) > 1e-6 then
        Alcotest.failf "suboptimal flow: got %f, brute force %f" cost brute
  done

let suite =
  suite
  @ [
      Alcotest.test_case "capacitated diamond" `Quick test_capacitated_diamond;
      Alcotest.test_case "capacitated matches brute force" `Quick
        test_capacitated_matches_brute_force;
    ]

(* --- reusable instances, warm starts and solver stats ---------------- *)

let test_instance_reuse_two_rounds () =
  (* One instance solved twice with different supplies must match two
     fresh instances solved once each. *)
  let build () =
    let p = Mcmf.create 3 in
    let a01 = Mcmf.add_arc p ~src:0 ~dst:1 ~capacity:4.0 ~cost:2 in
    let a12 = Mcmf.add_arc p ~src:1 ~dst:2 ~capacity:4.0 ~cost:1 in
    let a02 = Mcmf.add_arc p ~src:0 ~dst:2 ~capacity:1.0 ~cost:5 in
    (p, [ a01; a12; a02 ])
  in
  (* The optimum read back from the instance right after its solve. *)
  let solve_with p handles supplies =
    Array.iteri (fun v s -> Mcmf.set_supply p v s) supplies;
    match Mcmf.solve p with
    | Error e -> Alcotest.failf "solve: %s" (Mcmf.error_to_string e)
    | Ok () ->
      ( Mcmf.total_cost p,
        Array.init 3 (Mcmf.potential p),
        List.map (Mcmf.flow_on p) handles )
  in
  let reused, handles = build () in
  let r1_cost, r1_pi, _ = solve_with reused handles [| 2.0; 0.0; -2.0 |] in
  let r2_cost, r2_pi, r2_flow = solve_with reused handles [| 3.0; -1.0; -2.0 |] in
  let fresh1, handles1 = build () in
  let f1_cost, f1_pi, _ = solve_with fresh1 handles1 [| 2.0; 0.0; -2.0 |] in
  let fresh2, handles2 = build () in
  let f2_cost, f2_pi, f2_flow = solve_with fresh2 handles2 [| 3.0; -1.0; -2.0 |] in
  check_float "round 1 cost" f1_cost r1_cost;
  check_float "round 2 cost" f2_cost r2_cost;
  check "round 1 potentials" true (r1_pi = f1_pi);
  check "round 2 potentials" true (r2_pi = f2_pi);
  check "round 2 flow" true (r2_flow = f2_flow)

let test_sealed_instance_rejects_arcs () =
  let p = Mcmf.create 2 in
  let _ = Mcmf.add_arc p ~src:0 ~dst:1 ~capacity:1.0 ~cost:1 in
  Mcmf.set_supply p 0 1.0;
  Mcmf.set_supply p 1 (-1.0);
  (match Mcmf.solve p with Ok () -> () | Error e -> Alcotest.failf "%s" (Mcmf.error_to_string e));
  match Mcmf.add_arc p ~src:0 ~dst:1 ~capacity:1.0 ~cost:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "add_arc accepted after seal"

let random_reusable_instance rng =
  (* Uncapacitated backbone plus capacitated chords: the shape of the
     retiming dual (warm potentials always stay valid on the
     uncapacitated arcs; the scan handles the rest). *)
  let n = 3 + Rng.int rng 4 in
  let p = Mcmf.create n in
  for v = 0 to n - 2 do
    ignore (Mcmf.add_arc p ~src:v ~dst:(v + 1) ~capacity:infinity ~cost:(Rng.int_in rng (-2) 4));
    ignore (Mcmf.add_arc p ~src:(v + 1) ~dst:v ~capacity:infinity ~cost:(2 + Rng.int rng 4))
  done;
  for _extra = 1 to n do
    let u = Rng.int rng n and v = Rng.int rng n in
    if u <> v then
      ignore
        (Mcmf.add_arc p ~src:u ~dst:v
           ~capacity:(float_of_int (1 + Rng.int rng 4))
           ~cost:(Rng.int rng 6))
  done;
  (n, p)

let random_supplies rng n =
  let supplies = Array.make n 0.0 in
  for v = 0 to n - 2 do
    supplies.(v) <- float_of_int (Rng.int_in rng (-3) 3)
  done;
  supplies.(n - 1) <- -.Array.fold_left ( +. ) 0.0 (Array.sub supplies 0 (n - 1));
  supplies

let test_warm_equals_cold_random () =
  (* Across several re-supply rounds, the warm-started reused instance
     must return bit-identical potentials (and costs) to a cold fresh
     instance: the potentials are canonical. *)
  let rng = Rng.create 1337 in
  for _trial = 1 to 25 do
    let seed = Rng.int rng 1_000_000 in
    let mk () = random_reusable_instance (Rng.create seed) in
    let n, reused = mk () in
    let srng = Rng.create (seed + 1) in
    for _round = 1 to 3 do
      let supplies = random_supplies srng n in
      let _, fresh = mk () in
      Array.iteri (fun v s -> Mcmf.set_supply reused v s) supplies;
      Array.iteri (fun v s -> Mcmf.set_supply fresh v s) supplies;
      match (Mcmf.solve reused, Mcmf.solve fresh) with
      | Ok (), Ok () ->
        check_float "warm cost = cold cost" (Mcmf.total_cost fresh) (Mcmf.total_cost reused);
        if Array.init n (Mcmf.potential reused) <> Array.init n (Mcmf.potential fresh) then
          Alcotest.fail "warm potentials differ from cold"
      | Error we, Error ce ->
        if we <> ce then
          Alcotest.failf "warm error %s vs cold %s" (Mcmf.error_to_string we)
            (Mcmf.error_to_string ce)
      | Ok _, Error e -> Alcotest.failf "cold failed where warm solved: %s" (Mcmf.error_to_string e)
      | Error e, Ok _ -> Alcotest.failf "warm failed where cold solved: %s" (Mcmf.error_to_string e)
    done
  done

let test_solver_stats_and_warm_hit () =
  (* Uncapacitated instance: the second warm solve must actually hit
     the warm-start path (skip Bellman-Ford) and still do work. *)
  let p = Mcmf.create 3 in
  let _ = Mcmf.add_arc p ~src:0 ~dst:1 ~capacity:infinity ~cost:1 in
  let _ = Mcmf.add_arc p ~src:1 ~dst:2 ~capacity:infinity ~cost:1 in
  let _ = Mcmf.add_arc p ~src:2 ~dst:0 ~capacity:infinity ~cost:3 in
  check "no stats before solve" true (Mcmf.last_stats p = Mcmf.zero_stats);
  Mcmf.set_supply p 0 2.0;
  Mcmf.set_supply p 2 (-2.0);
  (match Mcmf.solve p with Ok () -> () | Error e -> Alcotest.failf "%s" (Mcmf.error_to_string e));
  let cold = Mcmf.last_stats p in
  check "cold solve is not warm" false cold.Mcmf.warm_start;
  check "cold phases positive" true (cold.Mcmf.phases >= 1);
  check "cold settles positive" true (cold.Mcmf.settles >= 1);
  check "cold pushes positive" true (cold.Mcmf.pushes >= 1);
  Mcmf.set_supply p 0 1.0;
  Mcmf.set_supply p 1 1.0;
  Mcmf.set_supply p 2 (-2.0);
  (match Mcmf.solve p with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s" (Mcmf.error_to_string e));
  let warm = Mcmf.last_stats p in
  check "second solve hits warm start" true warm.Mcmf.warm_start;
  check "warm phases positive" true (warm.Mcmf.phases >= 1)

(* --- compiled difference instances ----------------------------------- *)

let random_system rng =
  let n = 2 + Rng.int rng 3 in
  let constraints = ref [] in
  for _c = 1 to 1 + Rng.int rng 6 do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then
      constraints := { Difference.a; b; bound = Rng.int_in rng (-2) 4 } :: !constraints
  done;
  for v = 1 to n - 1 do
    constraints := { Difference.a = v; b = 0; bound = 3 } :: !constraints;
    constraints := { Difference.a = 0; b = v; bound = 3 } :: !constraints
  done;
  (n, !constraints)

let test_compiled_matches_one_shot () =
  (* A compiled instance re-optimized over a series of random
     objectives (cold once, then warm) returns bit-identical labels to
     a fresh instance solved once (cold) per objective, round after
     round. *)
  let rng = Rng.create 2024 in
  for _trial = 1 to 40 do
    let n, cs = random_system rng in
    match compile ~n cs with
    | Error Difference.Infeasible_constraints ->
      check "Bellman-Ford agrees infeasible" true (feasible ~n cs = None)
    | Error Difference.Unbounded_objective -> Alcotest.fail "compile cannot be unbounded"
    | Ok inst ->
      let a, b, bound, m = arrays_of cs in
      for _round = 1 to 4 do
        let objective = Array.init n (fun _ -> float_of_int (Rng.int_in rng (-3) 3)) in
        let resolved = Difference.reoptimize inst ~objective in
        let fresh = optimize_fresh ~n ~objective cs in
        (match (resolved, fresh) with
        | Ok x, Ok y ->
          if x <> y then Alcotest.fail "re-solved labels differ from a fresh instance's";
          check "check_arrays agrees" true
            (Difference.check_arrays ~a ~b ~bound ~m x = Difference.check cs x)
        | Error Difference.Unbounded_objective, Error Difference.Unbounded_objective -> ()
        | _ -> Alcotest.fail "re-solved/fresh instances disagree on outcome")
      done
  done

let test_compiled_stats_warm_progression () =
  let cs = [ { Difference.a = 1; b = 0; bound = 2 }; { Difference.a = 0; b = 1; bound = 0 } ] in
  match compile ~n:2 cs with
  | Error _ -> Alcotest.fail "compile failed"
  | Ok inst ->
    (match Difference.reoptimize inst ~objective:[| 0.0; -0.75 |] with
    | Ok x -> check_int "first round optimum" 2 x.(1)
    | Error _ -> Alcotest.fail "first round failed");
    check "first round is cold" false (Difference.solver_stats inst).Mcmf.warm_start;
    (match Difference.reoptimize inst ~objective:[| 0.0; 0.5 |] with
    | Ok x -> check_int "second round optimum" 0 x.(1)
    | Error _ -> Alcotest.fail "second round failed");
    check "second round warm" true (Difference.solver_stats inst).Mcmf.warm_start

(* A ring over n = 300 nodes plus 24 n random constraints
   (m = 7483), compiled, with one cold and two warm rounds run so every
   scratch buffer has its size.  Returns [n], [m], the instance, a
   fresh random objective and a solve that fails the test on an
   error. *)
let warm_allocation_system () =
  let rng = Rng.create 4242 in
  let n = 300 in
  let cs = ref [] in
  for v = 0 to n - 1 do
    cs := { Difference.a = v; b = (v + 1) mod n; bound = 1 } :: !cs
  done;
  for _c = 1 to 24 * n do
    let a = Rng.int rng n and b = Rng.int rng n in
    if a <> b then cs := { Difference.a; b; bound = Rng.int_in rng 0 3 } :: !cs
  done;
  let m = List.length !cs in
  match compile ~n !cs with
  | Error _ -> Alcotest.fail "compile failed"
  | Ok inst ->
    let objective () = Array.init n (fun _ -> Rng.float rng 4.0 -. 2.0) in
    let solve objective =
      match Difference.reoptimize inst ~objective with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "reoptimize failed"
    in
    for _round = 1 to 3 do
      solve (objective ())
    done;
    (n, m, inst, objective (), solve)

(* A warm re-solve allocates its one label array and nothing per
   constraint: on a system with m >= 20 n constraints it must add
   fewer than m/2 words to the major heap.  A per-solve flow array (one
   float per constraint and guard arc) is allocated straight into the
   major heap and fails this. *)
let test_warm_reoptimize_allocation () =
  let n, m, inst, objective, solve = warm_allocation_system () in
  check "m >= 20 n" true (m >= 20 * n);
  (* [major_words] takes in the words allocated straight into the
     major heap at the next minor collection, so one brackets the
     solve on each side. *)
  Gc.minor ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  solve objective;
  Gc.minor ();
  let added = (Gc.quick_stat ()).Gc.major_words -. before in
  check "measured solve is warm" true (Difference.solver_stats inst).Mcmf.warm_start;
  if added >= float_of_int m /. 2.0 then
    Alcotest.failf "warm reoptimize added %.0f major words (m = %d)" added m

let suite =
  suite
  @ [
      Alcotest.test_case "instance reuse two rounds" `Quick test_instance_reuse_two_rounds;
      Alcotest.test_case "sealed instance rejects arcs" `Quick test_sealed_instance_rejects_arcs;
      Alcotest.test_case "warm equals cold on random instances" `Quick test_warm_equals_cold_random;
      Alcotest.test_case "solver stats and warm hit" `Quick test_solver_stats_and_warm_hit;
      Alcotest.test_case "compiled matches one-shot" `Quick test_compiled_matches_one_shot;
      Alcotest.test_case "compiled stats warm progression" `Quick
        test_compiled_stats_warm_progression;
      Alcotest.test_case "warm reoptimize allocates no per-constraint array" `Quick
        test_warm_reoptimize_allocation;
    ]

(* The blocking flow keeps its floats unboxed: a warm re-solve
   allocates O(n) minor words, not a few per push.  The solve makes
   more than three pushes per node, so boxing a single float (two
   words) per push would exceed the 4 n bound by itself. *)
let test_warm_reoptimize_minor_words () =
  let n, _m, inst, objective, solve = warm_allocation_system () in
  let before = Gc.minor_words () in
  solve objective;
  let words = Gc.minor_words () -. before in
  let stats = Difference.solver_stats inst in
  check "measured solve is warm" true stats.Mcmf.warm_start;
  check "more than three pushes per node" true (stats.Mcmf.pushes > 3 * n);
  if words >= float_of_int (4 * n) then
    Alcotest.failf "warm reoptimize allocated %.0f minor words (n = %d, %d pushes)" words n
      stats.Mcmf.pushes

let suite =
  suite
  @ [
      Alcotest.test_case "warm reoptimize allocates O(n) minor words" `Quick
        test_warm_reoptimize_minor_words;
    ]
