(* Exact LAC-retiming (branch and bound) vs the adaptive heuristic on
   tiny instances: the exact optimum lower-bounds the heuristic, and
   on small problems the heuristic usually attains it.  This is the
   optimality-gap measurement the paper's NP-completeness remark
   invites but does not perform. *)

module Graph = Lacr_retime.Graph
module Paths = Lacr_retime.Paths
module Constraints = Lacr_retime.Constraints
module Feasibility = Lacr_retime.Feasibility
module Problem = Lacr_core.Problem
module Exact = Lacr_oracle.Exact
module Lac = Lacr_core.Lac
module Rng = Lacr_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A tiny ring-with-chords retiming graph plus a random tile map. *)
let random_problem rng =
  let n = 4 + Rng.int rng 2 in
  let delays = Array.init n (fun v -> if v = 0 then 0.0 else float_of_int (1 + Rng.int rng 4)) in
  let ring =
    List.init n (fun v -> { Graph.src = v; dst = (v + 1) mod n; weight = 1 })
  in
  let chords = ref [] in
  for _c = 1 to Rng.int rng n do
    let src = Rng.int rng n and dst = Rng.int rng n in
    if src <> dst then chords := { Graph.src; dst; weight = 1 } :: !chords
  done;
  let g = Graph.create ~delays ~edges:(ring @ !chords) ~host:0 in
  let n_tiles = 2 + Rng.int rng 2 in
  let vertex_tile = Array.init n (fun v -> if v = 0 then -1 else Rng.int rng n_tiles) in
  let capacity = Array.init n_tiles (fun _ -> float_of_int (Rng.int rng 3)) in
  {
    Problem.graph = g;
    vertex_tile;
    n_tiles;
    capacity;
    ff_area = 1.0;
    interconnect = Array.make n false;
  }

let constraints_for problem rng =
  let g = problem.Problem.graph in
  let wd = Paths.compute g in
  let mp = Feasibility.min_period g wd in
  let slack = float_of_int (Rng.int rng 3) /. 2.0 in
  Constraints.generate ~prune:true g wd ~period:(mp.Feasibility.period +. slack)

let test_exact_validates_problem () =
  let rng = Rng.create 5 in
  let problem = random_problem rng in
  check "problem validates" true (Problem.validate problem = Ok ())

let test_exact_beats_or_ties_heuristic () =
  let rng = Rng.create 77 in
  let gaps = ref [] in
  for _trial = 1 to 30 do
    let problem = random_problem rng in
    let cs = constraints_for problem rng in
    match (Exact.solve ~range:6 problem cs, Lac.retime_problem problem cs) with
    | Some exact, Ok { Lac.lac = heuristic; _ } ->
      check "exact labels legal" true (Graph.is_legal problem.Problem.graph exact.Exact.labels);
      check "exact satisfies constraints" true (Constraints.satisfied_by cs exact.Exact.labels);
      if heuristic.Lac.n_foa < exact.Exact.n_foa then
        Alcotest.failf "heuristic (%d) beat the exact optimum (%d)?!" heuristic.Lac.n_foa
          exact.Exact.n_foa;
      gaps := (heuristic.Lac.n_foa - exact.Exact.n_foa) :: !gaps
    | None, _ -> Alcotest.fail "exact found no labelling in range"
    | _, Error msg -> Alcotest.fail msg
  done;
  (* The heuristic should attain the optimum on a solid majority of
     tiny instances. *)
  let hits = List.length (List.filter (( = ) 0) !gaps) in
  check "heuristic optimal on most tiny instances" true (hits * 10 >= List.length !gaps * 6)

let test_exact_zero_when_capacity_ample () =
  let rng = Rng.create 3 in
  let problem = random_problem rng in
  let ample = { problem with Problem.capacity = Array.map (fun _ -> 1000.0) problem.Problem.capacity } in
  let cs = constraints_for ample rng in
  match Exact.solve ample cs with
  | Some exact -> check_int "no violations possible" 0 exact.Exact.n_foa
  | None -> Alcotest.fail "exact found nothing"

let test_exact_guards_size () =
  let n = 30 in
  let delays = Array.make n 1.0 in
  let edges = List.init n (fun v -> { Graph.src = v; dst = (v + 1) mod n; weight = 1 }) in
  let g = Graph.create ~delays ~edges ~host:0 in
  let problem =
    {
      Problem.graph = g;
      vertex_tile = Array.make n 0;
      n_tiles = 1;
      capacity = [| 10.0 |];
      ff_area = 1.0;
      interconnect = Array.make n false;
    }
  in
  let wd = Paths.compute g in
  let cs = Constraints.generate g wd ~period:1000.0 in
  match Exact.solve problem cs with
  | exception Invalid_argument _ -> ()
  | Some _ | None -> Alcotest.fail "expected size guard"

let suite =
  [
    Alcotest.test_case "problem validates" `Quick test_exact_validates_problem;
    Alcotest.test_case "exact beats or ties heuristic" `Slow test_exact_beats_or_ties_heuristic;
    Alcotest.test_case "zero violations when capacity ample" `Quick test_exact_zero_when_capacity_ample;
    Alcotest.test_case "size guard" `Quick test_exact_guards_size;
  ]
