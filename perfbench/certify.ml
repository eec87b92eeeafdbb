(* Output check of one plan, from public functions only: each reported
   retiming labelling is legal, meets the target clock period, keeps
   every I/O pin at its original latency, and recounts to the N_FOA and
   N_F the planner reported.  It depends on nothing the solver
   computed besides the labels and the two counts it checks. *)

module Planner = Lacr_core.Planner
module Build = Lacr_core.Build
module Lac = Lacr_core.Lac
module Area = Lacr_core.Area
module Graph = Lacr_retime.Graph

(* Clock periods are float sums of the same delays on both sides. *)
let period_slack = 1e-6

let labelling ~what ~t_clk (inst : Build.instance) (o : Lac.outcome) =
  let g = inst.Build.graph and labels = o.Lac.labels in
  let fail fmt = Printf.ksprintf (fun m -> Error (what ^ ": " ^ m)) fmt in
  if Array.length labels <> Graph.num_vertices g then
    fail "%d labels for %d vertices" (Array.length labels) (Graph.num_vertices g)
  else if not (Graph.is_legal g labels) then fail "retimed weight below zero"
  else
    match Graph.retime g labels with
    | Error msg -> fail "%s" msg
    | Ok retimed ->
      let period = Graph.clock_period retimed in
      let n_foa = (Area.report inst ~labels).Area.n_foa in
      let n_f = Area.ff_count inst ~labels in
      if period > t_clk +. (period_slack *. Float.max 1.0 t_clk) then
        fail "clock period %.9g above t_clk %.9g" period t_clk
      else if not (Lacr_mcmf.Difference.check inst.Build.pin_constraints labels) then
        fail "an I/O pin constraint does not hold"
      else if n_foa <> o.Lac.n_foa then fail "N_FOA recounts to %d, reported %d" n_foa o.Lac.n_foa
      else if n_f <> o.Lac.n_f then fail "N_F recounts to %d, reported %d" n_f o.Lac.n_f
      else Ok ()

(* Every labelling a run reports: plain min-area and LAC on the first
   instance, and LAC on the expanded instance when the second
   iteration produced one.  A second iteration that reports an error
   (the paper's infeasible-after-expansion case) has no labelling to
   check. *)
let run (r : Planner.run) =
  let t_clk = r.Planner.t_clk in
  let first =
    [ ("minarea", r.Planner.instance, r.Planner.minarea); ("lac", r.Planner.instance, r.Planner.lac) ]
  in
  let second =
    match r.Planner.second with
    | Some (Ok { Planner.instance2; lac2 = Ok o }) -> [ ("lac2", instance2, o) ]
    | Some (Ok { Planner.lac2 = Error _; _ }) | Some (Error _) | None -> []
  in
  List.fold_left
    (fun acc (what, inst, o) ->
      match acc with Error _ -> acc | Ok () -> labelling ~what ~t_clk inst o)
    (Ok ()) (first @ second)
