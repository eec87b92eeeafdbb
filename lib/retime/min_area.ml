type solution = {
  labels : int array;
  ff_count : int;
  ff_area : float;
  stats : Lacr_mcmf.Mcmf.stats;
}

let objective_coefficients_into g ~area coeff =
  let n = Graph.num_vertices g in
  if Array.length area <> n then invalid_arg "Min_area: area arity mismatch";
  Array.iter (fun a -> if a < 0.0 then invalid_arg "Min_area: negative area weight") area;
  Array.fill coeff 0 n 0.0;
  let tally (e : Graph.edge) =
    (* Each flip-flop on e is charged A(src): contributes +A(src) per
       unit of r(dst) and -A(src) per unit of r(src). *)
    coeff.(e.Graph.dst) <- coeff.(e.Graph.dst) +. area.(e.Graph.src);
    coeff.(e.Graph.src) <- coeff.(e.Graph.src) -. area.(e.Graph.src)
  in
  Array.iter tally (Graph.edges g)

let weighted_ff_area g ~area labels =
  Array.fold_left
    (fun acc (e : Graph.edge) ->
      acc +. (area.(e.Graph.src) *. float_of_int (Graph.retimed_weight g labels e)))
    0.0 (Graph.edges g)

(* Registers needed under maximum fan-out sharing: one chain per
   driver, so each vertex contributes its largest retimed fan-out
   weight. *)
let shared_registers g labels =
  let off = Graph.csr_offsets g and dst = Graph.csr_dst g and wgt = Graph.csr_weight g in
  let total = ref 0 in
  for v = 0 to Graph.num_vertices g - 1 do
    let deepest = ref 0 in
    for slot = off.(v) to off.(v + 1) - 1 do
      let w = wgt.(slot) + labels.(dst.(slot)) - labels.(v) in
      if w > !deepest then deepest := w
    done;
    total := !total + !deepest
  done;
  !total

let count_ffs g labels =
  Array.fold_left (fun acc e -> acc + Graph.retimed_weight g labels e) 0 (Graph.edges g)

(* Compiled instance: the constraint system proven feasible and the
   flow network built once, plus an objective scratch vector — the
   per-round state of the LAC re-weighting loop. *)
type compiled = { cg : Graph.t; inst : Lacr_mcmf.Difference.instance; objective : float array }

let error_message = function
  | Lacr_mcmf.Difference.Infeasible_constraints ->
    "min-area retiming: clock period constraints infeasible"
  | Lacr_mcmf.Difference.Unbounded_objective ->
    "min-area retiming: objective unbounded (malformed graph)"

let compile g (cs : Constraints.t) =
  let n = Graph.num_vertices g in
  let s = cs.Constraints.system in
  match
    Lacr_mcmf.Difference.compile_arrays ~n ~a:s.Constraints.ca ~b:s.Constraints.cb
      ~bound:s.Constraints.cbound s.Constraints.m
  with
  | Error e -> Error (error_message e)
  | Ok inst -> Ok { cg = g; inst; objective = Array.make n 0.0 }

let solve_compiled ?trace c ~area =
  let g = c.cg in
  objective_coefficients_into g ~area c.objective;
  match Lacr_mcmf.Difference.reoptimize ?trace c.inst ~objective:c.objective with
  | Error e -> Error (error_message e)
  | Ok labels ->
    (* The assignment is a fresh array: re-pin it to the host in place. *)
    let base = labels.(Graph.host g) in
    Array.iteri (fun v l -> labels.(v) <- l - base) labels;
    if not (Graph.is_legal g labels) then Error "min-area retiming: solver returned illegal labelling"
    else
      Ok
        {
          labels;
          ff_count = count_ffs g labels;
          ff_area = weighted_ff_area g ~area labels;
          stats = Lacr_mcmf.Difference.solver_stats c.inst;
        }

let solve_weighted ?trace g cs ~area =
  match compile g cs with
  | Error msg -> Error msg
  | Ok c -> solve_compiled ?trace c ~area

let solve g cs =
  let area = Array.make (Graph.num_vertices g) 1.0 in
  solve_weighted g cs ~area
