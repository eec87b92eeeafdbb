module Graph = Lacr_retime.Graph
module Paths = Lacr_retime.Paths
module Constraints = Lacr_retime.Constraints
module Feasibility = Lacr_retime.Feasibility
module Tilegraph = Lacr_tilegraph.Tilegraph
module Occupancy = Lacr_tilegraph.Occupancy
module Obs = Lacr_obs.Trace

type run = {
  instance : Build.instance;
  t_init : float;
  t_min : float;
  t_clk : float;
  minarea : Lac.outcome;
  lac : Lac.outcome;
  second : (second, string) result option;
}

and second = {
  instance2 : Build.instance;
  lac2 : (Lac.outcome, string) result;
}

(* Structured failure, so a bad request never crashes the caller or
   makes it exit — the serving daemon maps these onto stable wire
   error codes.  Every entry point returns [error] and captures the two
   escaping exception families (routing dead ends under the sanitizer,
   sanitizer violations). *)
type error =
  | Failed of string
  | Routing_failed of { src : int; dst : int; reason : string }
  | Sanitizer_violation of { invariant : string; detail : string }

let error_code = function
  | Failed _ -> "plan_failed"
  | Routing_failed _ -> "routing_error"
  | Sanitizer_violation _ -> "sanitize_violation"

let error_message = function
  | Failed msg -> msg
  | Routing_failed { src; dst; reason } ->
    Printf.sprintf "global routing failed from cell %d to cell %d: %s" src dst reason
  | Sanitizer_violation { invariant; detail } ->
    Printf.sprintf "sanitizer violation [%s]: %s" invariant detail

let capture f =
  match f () with
  | Ok v -> Ok v
  | Error msg -> Error (Failed msg)
  | exception Lacr_routing.Maze.Routing_error { src; dst; reason } ->
    Error (Routing_failed { src; dst; reason })
  | exception Lacr_util.Sanitize.Violation { invariant; detail } ->
    Error (Sanitizer_violation { invariant; detail })

(* Everything [plan_checked] derives from the netlist before the
   retiming solves: the built instance plus the period analysis and
   the constraint system generated once at T_clk.  Immutable, so a
   resident copy can serve any number of [plan_prepared] calls. *)
type prepared = {
  p_instance : Build.instance;
  p_t_init : float;
  p_t_min : float;
  p_t_clk : float;
  p_constraints : Constraints.t;
}

(* Grow each over-utilized soft block (the floorplanner "allocates
   additional space to those over-utilized soft blocks", paper §1). *)
let growth_table (inst : Build.instance) (outcome : Lac.outcome) =
  (* Growth covers the tile's full overflow — relocated flip-flops AND
     the repeaters already parked there: a tile overfull from
     repeaters alone leaves C(t) = 0, so its resident flip-flops can
     never become legal without more block area. *)
  let report = Area.report inst ~labels:outcome.Lac.labels in
  let tiles = Tilegraph.tiles inst.Build.tilegraph in
  (* Max-merge into an association list: when several violated tiles
     map to one block (a block spanning tiles, or duplicate report
     entries) the strongest demand wins, independent of the order the
     tiles are visited in.  Blocks number in the tens, so the linear
     scan costs nothing and — unlike a hash table — the accumulator
     has no iteration-order pitfalls at all. *)
  let by_block = ref [] in
  let record name factor =
    let rec bump = function
      | [] -> [ (name, factor) ]
      | (n, prev) :: rest when String.equal n name -> (n, Float.max prev factor) :: rest
      | entry :: rest -> entry :: bump rest
    in
    by_block := bump !by_block
  in
  List.iter
    (fun (tile, _ff_excess) ->
      match tiles.(tile).Tilegraph.kind with
      | Tilegraph.Soft_merged b ->
        let name = inst.Build.blocks.(b).Lacr_floorplan.Block.name in
        let full_excess =
          report.Area.consumption.(tile)
          +. Occupancy.used inst.Build.occupancy tile
          -. tiles.(tile).Tilegraph.capacity
        in
        if full_excess > 0.0 then begin
          (* Growing a soft block by factor (1+g) raises its capacity
             by about sized * inflation * fill * g FF units; size the
             growth to cover the excess with 30% slack, so the
             floorplan change stays incremental (big jumps can make
             the frozen T_clk infeasible, the paper's s1269 case). *)
          let cfg = inst.Build.config in
          let sized_units =
            Lacr_floorplan.Block.area inst.Build.blocks.(b)
            /. (inst.Build.mm2_per_unit *. cfg.Config.block_area_inflation)
          in
          let capacity_per_growth =
            sized_units *. cfg.Config.block_area_inflation *. cfg.Config.soft_fill_factor
          in
          let factor = 1.3 *. full_excess /. max 1.0 capacity_per_growth in
          record name factor
        end
      | Tilegraph.Channel | Tilegraph.Hard_cell _ -> ())
    report.Area.violated_tiles;
  List.sort (fun (a, _) (b, _) -> String.compare a b) !by_block

let growth_for inst outcome =
  let table = growth_table inst outcome in
  fun name -> match List.assoc_opt name table with Some f -> f | None -> 0.0

let retiming_setup ?pool ?(trace = Obs.disabled) (inst : Build.instance) =
  Obs.with_span trace ~cat:"core" "retiming.setup" @@ fun () ->
  let g = inst.Build.graph in
  let t_init = Graph.clock_period g in
  let cfg = inst.Build.config in
  let extra = inst.Build.pin_constraints in
  let wd = Paths.compute ~mode:cfg.Config.paths_mode ?pool ~trace ~extra g in
  let mp = Feasibility.min_period ~extra ~trace g wd in
  let t_min = mp.Feasibility.period in
  let t_clk = Config.t_clk cfg ~t_init ~t_min in
  let constraints =
    Constraints.generate ~prune:cfg.Config.prune_constraints ~extra ?pool ~trace g wd
      ~period:t_clk
  in
  (t_init, t_min, t_clk, constraints)

let prepare_with_pool ~pool ~trace instance =
  let t_init, t_min, t_clk, constraints = retiming_setup ~pool ~trace instance in
  {
    p_instance = instance;
    p_t_init = t_init;
    p_t_min = t_min;
    p_t_clk = t_clk;
    p_constraints = constraints;
  }

let plan_prepared_with_pool ~pool ~second_iteration ?session ~trace prepared =
  let { p_instance = instance; p_t_clk = t_clk; _ } = prepared in
  let config = instance.Build.config in
  (match Lac.retime ?session ~pool ~obs:trace instance prepared.p_constraints with
  | Error msg -> Error msg
  | Ok { Lac.minarea; lac } ->
    let second =
      if (not second_iteration) || lac.Lac.n_foa = 0 then None
      else
        Obs.with_span trace ~cat:"core" "plan.second" @@ fun () ->
        let instance2 = Build.expand ~pool ~trace instance ~grow:(growth_for instance lac) in
        (* The expanded floorplan changes interconnect delays; the
           original T_clk may no longer be feasible (the paper's s1269
           case).  Generate fresh constraints at the same T_clk and
           report infeasibility honestly.  The resident [session]
           solver belongs to the first-iteration constraint system, so
           the re-plan always compiles its own. *)
        let g2 = instance2.Build.graph in
        let extra2 = instance2.Build.pin_constraints in
        let wd2 = Paths.compute ~mode:config.Config.paths_mode ~pool ~trace ~extra:extra2 g2 in
        let constraints2 =
          Constraints.generate ~prune:config.Config.prune_constraints ~extra:extra2 ~pool ~trace g2
            wd2 ~period:t_clk
        in
        let lac2 =
          Result.map (fun o -> o.Lac.lac) (Lac.retime ~pool ~obs:trace instance2 constraints2)
        in
        Some (Ok { instance2; lac2 })
    in
    Ok
      {
        instance;
        t_init = prepared.p_t_init;
        t_min = prepared.p_t_min;
        t_clk;
        minarea;
        lac;
        second;
      })

(* [sanitize] widens, never narrows: LACR_SANITIZE=1 in the
   environment stays in force even when the config says [false]. *)
let sanitize_scope config f =
  Lacr_util.Sanitize.with_enabled
    (Lacr_util.Sanitize.enabled () || config.Config.sanitize)
    f

let pool_size config = Lacr_util.Pool.resolve_size ~requested:config.Config.domains

let plan_checked ?(config = Config.default) ?(second_iteration = true) ?(trace = Obs.disabled)
    netlist =
  capture @@ fun () ->
  sanitize_scope config @@ fun () ->
  Obs.with_span trace ~cat:"core" "plan" @@ fun () ->
  (* One pool for the whole run: global routing, the (W,D) matrices,
     constraint generation and the LAC flip-flop accounting of both
     planning iterations share its worker domains.  Every stage is
     bit-deterministic in the pool size, so plans are reproducible
     under any --domains / LACR_DOMAINS setting. *)
  Lacr_util.Pool.with_pool ~size:(pool_size config) (fun pool ->
      match Build.build ~config ~pool ~trace netlist with
      | Error msg -> Error msg
      | Ok instance ->
        plan_prepared_with_pool ~pool ~second_iteration ~trace
          (prepare_with_pool ~pool ~trace instance))

(* The split pipeline: [prepare] does everything up to (and including)
   constraint generation, [plan_prepared] runs the retiming solves and
   the optional expansion re-plan.  Each owns a fresh pool for its
   stage — every stage is bit-deterministic in the pool size, so
   [prepare |> plan_prepared] equals [plan_checked] field for field;
   the split only exists so a resident [prepared] (and optionally a
   resident compiled solver) can be reused across requests. *)
let prepare ?(config = Config.default) ?(trace = Obs.disabled) netlist =
  capture @@ fun () ->
  sanitize_scope config @@ fun () ->
  Obs.with_span trace ~cat:"core" "plan.prepare" @@ fun () ->
  Lacr_util.Pool.with_pool ~size:(pool_size config) (fun pool ->
      match Build.build ~config ~pool ~trace netlist with
      | Error msg -> Error msg
      | Ok instance -> Ok (prepare_with_pool ~pool ~trace instance))

let plan_prepared ?(second_iteration = true) ?session ?(trace = Obs.disabled) prepared =
  let config = prepared.p_instance.Build.config in
  capture @@ fun () ->
  sanitize_scope config @@ fun () ->
  Obs.with_span trace ~cat:"core" "plan.solve" @@ fun () ->
  Lacr_util.Pool.with_pool ~size:(pool_size config) (fun pool ->
      plan_prepared_with_pool ~pool ~second_iteration ?session ~trace prepared)

let compile_solver prepared =
  Lacr_retime.Min_area.compile prepared.p_instance.Build.graph prepared.p_constraints
