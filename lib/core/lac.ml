module Graph = Lacr_retime.Graph
module Min_area = Lacr_retime.Min_area
module Obs = Lacr_obs.Trace

type outcome = {
  labels : int array;
  n_foa : int;
  n_f : int;
  n_fn : int;
  n_wr : int;
  exec_seconds : float;
  trace : (int * float) list;
  solver : Lacr_mcmf.Mcmf.stats list;
}

type outcomes = { minarea : outcome; lac : outcome }

let capacity_floor = 0.25

(* Tiny area bias against interconnect-resident flip-flops: a register
   in a wire needs shielding/buffering that a register inside a block
   does not, and it breaks ties so the LP does not scatter flip-flops
   along unit chains arbitrarily.  Small enough (total FF counts are
   well under 1/bias) never to trade away a whole flip-flop. *)
let interconnect_bias = 1e-4

let base_area (problem : Problem.t) =
  Array.map
    (fun inter -> if inter then 1.0 +. interconnect_bias else 1.0)
    problem.Problem.interconnect

let outcome_of ?pool (problem : Problem.t) labels ~n_wr ~exec_seconds ~trace ~solver =
  {
    labels;
    n_foa = Problem.violations problem ~labels;
    n_f = Problem.ff_count ?pool problem ~labels;
    n_fn = Problem.ff_in_interconnect ?pool problem ~labels;
    n_wr;
    exec_seconds;
    trace;
    solver;
  }

(* Area weight of a vertex = current weight of its tile (untiled
   vertices stay neutral), with the epsilon interconnect bias folded
   in.  Written into the caller's scratch: the LAC loop refreshes one
   array in place every round instead of allocating two. *)
let vertex_areas_into (problem : Problem.t) ~base tile_weight area =
  Array.iteri
    (fun v tile -> area.(v) <- (if tile >= 0 then tile_weight.(tile) *. base.(v) else base.(v)))
    problem.Problem.vertex_tile

(* Sanitizer checks after each LAC round: the labelling is a legal
   retiming (host pinned, no negative retimed weight, flip-flop counts
   preserved around every cycle), the pooled flip-flop count matches a
   sequential recount (a failed match means a pool-worker race), and
   the per-tile accounting is consistent: a round reporting zero
   violations really has AC(t) <= C(t) on every tile. *)
let sanitize_round (problem : Problem.t) ~labels ~n_foa ~n_f =
  let module S = Lacr_util.Sanitize in
  let g = problem.Problem.graph in
  if labels.(Graph.host g) <> 0 then
    S.fail ~invariant:"retime.host"
      (Printf.sprintf "host label is %d, not 0" labels.(Graph.host g));
  if not (Graph.is_legal g labels) then
    S.fail ~invariant:"retime.legality" "labelling leaves a negative retimed edge weight";
  let edges = Graph.edges g in
  let m = Array.length edges in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let w_before = Array.make m 0 and w_after = Array.make m 0 in
  Array.iteri
    (fun i (e : Graph.edge) ->
      src.(i) <- e.Graph.src;
      dst.(i) <- e.Graph.dst;
      w_before.(i) <- e.Graph.weight;
      w_after.(i) <- Graph.retimed_weight g labels e)
    edges;
  S.check_cycle_sums ~invariant:"retime.cycle_sum" ~n:(Graph.num_vertices g) ~src ~dst
    ~w_before ~w_after;
  let serial = Problem.ff_count problem ~labels in
  if serial <> n_f then
    S.fail ~invariant:"lac.ff_count"
      (Printf.sprintf "pooled flip-flop count %d, sequential recount %d" n_f serial);
  let consumption = Problem.consumption problem ~labels in
  Array.iteri
    (fun tile used ->
      if not (Float.is_finite used) || used < -1e-9 then
        S.fail ~invariant:"lac.accounting"
          (Printf.sprintf "tile %d has ill-formed consumption %g" tile used);
      if n_foa = 0 && used > max 0.0 problem.Problem.capacity.(tile) +. 1e-9 then
        S.fail ~invariant:"lac.accounting"
          (Printf.sprintf "zero violations reported but tile %d consumes %g of capacity %g"
             tile used problem.Problem.capacity.(tile)))
    consumption

let retime_problem ?(alpha = Config.default.Config.alpha)
    ?(n_max = Config.default.Config.n_max) ?(max_wr = Config.default.Config.max_wr)
    ?(reuse = true) ?session ?pool ?(obs = Obs.disabled) (problem : Problem.t) constraints =
  if alpha < 0.0 || alpha > 1.0 then invalid_arg "Lac.retime: alpha out of [0,1]";
  Obs.with_span obs ~cat:"lac"
    ~attrs:[ ("alpha", Obs.Float alpha); ("max_wr", Obs.Int max_wr) ]
    "lac.retime"
  @@ fun () ->
  (* The one wall-clock source lives in [Trace]: a clock injected
     there makes both [exec_seconds] deterministic. *)
  let clock = Obs.clock_of obs in
  let start = clock () in
  let n = Graph.num_vertices problem.Problem.graph in
  let tile_weight = Array.make problem.Problem.n_tiles 1.0 in
  let remaining tile = max capacity_floor problem.Problem.capacity.(tile) in
  let base = base_area problem in
  let area = Array.make n 0.0 in
  let best = ref None in
  (* Round 0 runs under uniform weights, so it is the plain min-area
     retiming of Table 1: its labels, solver counters and end time. *)
  let first = ref None in
  let trace = ref [] in
  let solver = ref [] in
  let stale = ref 0 in
  (* The successive-instance engine: constraints are fixed for the
     whole run (paper §4.2 — generated once), so the flow network is
     compiled once and every round after the first warm-starts from
     the previous optimum's potentials.  [reuse = false] keeps the
     cold path (fresh compile per round), the reference `lacr
     verify-warm` compares against; both return bit-identical
     labellings.  [session] hands in a compiled solver kept resident
     {e across} runs (the serving daemon's warm cache): it skips the
     compile and starts from whatever potentials the
     previous run left behind — canonical potentials make the
     labelling identical either way, only the solver counters move. *)
  let compiled =
    match session with
    | Some c -> Ok (Some c)
    | None ->
      if reuse then
        match
          Obs.with_span obs ~cat:"lac" "lac.compile" (fun () ->
              Min_area.compile problem.Problem.graph constraints)
        with
        | Ok c -> Ok (Some c)
        | Error msg -> Error msg
      else Ok None
  in
  match compiled with
  | Error msg -> Error msg
  | Ok compiled ->
    let solve_round () =
      match compiled with
      | Some c -> Min_area.solve_compiled ~trace:obs c ~area
      | None -> Min_area.solve_weighted ~trace:obs problem.Problem.graph constraints ~area
    in
    (* One [lac.round] span per re-weighting round, carrying the flow
       solver's counters and the round's violation count.  The spans
       are siblings (the recursion advances {e outside} the span), so
       the Chrome export shows the rounds side by side under
       [lac.retime] rather than as a max_wr-deep nest. *)
    let round n_wr =
      Obs.with_span obs ~cat:"lac"
        ~attrs:[ ("round", Obs.Int n_wr) ]
        "lac.round"
      @@ fun () ->
      vertex_areas_into problem ~base tile_weight area;
      match solve_round () with
      | Error msg -> Error msg
      | Ok solution ->
        let labels = solution.Min_area.labels in
        let n_foa = Problem.violations problem ~labels in
        trace := (n_foa, solution.Min_area.ff_area) :: !trace;
        solver := solution.Min_area.stats :: !solver;
        let n_f = Problem.ff_count ?pool problem ~labels in
        if Lacr_util.Sanitize.enabled () then sanitize_round problem ~labels ~n_foa ~n_f;
        if n_wr = 0 then first := Some (labels, solution.Min_area.stats, clock ());
        if Obs.enabled obs then begin
          let st = solution.Min_area.stats in
          Obs.span_attr obs "n_foa" (Obs.Int n_foa);
          Obs.span_attr obs "ff_area" (Obs.Float solution.Min_area.ff_area);
          Obs.span_attr obs "phases" (Obs.Int st.Lacr_mcmf.Mcmf.phases);
          Obs.span_attr obs "settles" (Obs.Int st.Lacr_mcmf.Mcmf.settles);
          Obs.span_attr obs "pushes" (Obs.Int st.Lacr_mcmf.Mcmf.pushes);
          Obs.span_attr obs "arc_scans" (Obs.Int st.Lacr_mcmf.Mcmf.arc_scans);
          Obs.span_attr obs "warm" (Obs.Bool st.Lacr_mcmf.Mcmf.warm_start);
          Obs.incr (Obs.counter obs "lac.rounds");
          Obs.add (Obs.counter obs "lac.violations") n_foa
        end;
        let improved =
          match !best with
          | None -> true
          | Some (best_foa, _, best_ffs) ->
            n_foa < best_foa || (n_foa = best_foa && n_f < best_ffs)
        in
        if improved then begin
          best := Some (n_foa, labels, n_f);
          stale := 0
        end
        else incr stale;
        if n_foa = 0 then Ok (`Stop "zero_violations")
        else if !stale > n_max then Ok (`Stop "stalled")
        else begin
          (* Paper step 6: New weight = Old * ((1-alpha) + alpha*AC/C). *)
          let consumption = Problem.consumption problem ~labels in
          Array.iteri
            (fun tile used ->
              let ratio = used /. remaining tile in
              let factor = (1.0 -. alpha) +. (alpha *. ratio) in
              tile_weight.(tile) <- tile_weight.(tile) *. factor)
            consumption;
          (* Renormalize so the smallest weight is 1 (pure scaling, the
             optimum is unchanged) and cap the spread: extreme cost
             ratios slow the min-cost-flow solver without changing the
             argmin once a tile is priced out. *)
          let lowest = Array.fold_left min infinity tile_weight in
          if lowest > 0.0 && lowest < infinity then
            Array.iteri (fun i w -> tile_weight.(i) <- min 1.0e4 (w /. lowest)) tile_weight;
          Ok `Continue
        end
    in
    (* The loop's three exits, named for the [lac.retime] span's
       [stop] attribute and the [lac.stop.<reason>] counter. *)
    let rec iterate n_wr =
      if n_wr >= max_wr then Ok "max_wr"
      else
        match round n_wr with
        | Error msg -> Error msg
        | Ok (`Stop reason) -> Ok reason
        | Ok `Continue -> iterate (n_wr + 1)
    in
    (match iterate 0 with
    | Error msg -> Error msg
    | Ok stop ->
      if Obs.enabled obs then begin
        Obs.span_attr obs "stop" (Obs.Str stop);
        Obs.incr (Obs.counter obs ("lac.stop." ^ stop))
      end;
      let exec_seconds = clock () -. start in
      (match (!first, !best) with
      | Some (labels0, stats0, end0), Some (_, labels, _) ->
        Ok
          {
            minarea =
              outcome_of ?pool problem labels0 ~n_wr:1 ~exec_seconds:(end0 -. start) ~trace:[]
                ~solver:[ stats0 ];
            lac =
              outcome_of ?pool problem labels ~n_wr:(List.length !trace) ~exec_seconds
                ~trace:(List.rev !trace) ~solver:(List.rev !solver);
          }
      | _ -> Error "LAC-retiming: no iteration completed"))

(* --- instance-facing wrappers --- *)

let retime ?alpha ?n_max ?max_wr ?reuse ?session ?pool ?obs (inst : Build.instance)
    constraints =
  let cfg = inst.Build.config in
  let alpha = match alpha with Some a -> a | None -> cfg.Config.alpha in
  let n_max = match n_max with Some n -> n | None -> cfg.Config.n_max in
  let max_wr = match max_wr with Some n -> n | None -> cfg.Config.max_wr in
  retime_problem ~alpha ~n_max ~max_wr ?reuse ?session ?pool ?obs
    (Problem.of_instance inst) constraints
