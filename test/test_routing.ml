(* Routing tests: Steiner tree invariants (connectivity, length lower
   bound vs HPWL), maze-route validity on the grid, usage accounting,
   engine equivalence (Dijkstra vs A* search), negotiated
   history behaviour, cross-domain determinism of the parallel
   router, and global-router end-to-end properties. *)

module Steiner = Lacr_routing.Steiner
module Maze = Lacr_routing.Maze
module Global_router = Lacr_routing.Global_router
module Tilegraph = Lacr_tilegraph.Tilegraph
module Block = Lacr_floorplan.Block
module Annealer = Lacr_floorplan.Annealer
module Floorplan = Lacr_floorplan.Floorplan
module Point = Lacr_geometry.Point
module Rect = Lacr_geometry.Rect
module Rng = Lacr_util.Rng
module Pool = Lacr_util.Pool
module Sanitize = Lacr_util.Sanitize
module Trace = Lacr_obs.Trace

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let random_points rng n =
  Array.init n (fun _ -> Point.make (Rng.float rng 10.0) (Rng.float rng 10.0))

(* --- Steiner --- *)

let test_mst_two_points () =
  let pts = [| Point.make 0.0 0.0; Point.make 3.0 4.0 |] in
  (match Steiner.mst pts with
  | [ (a, b) ] -> check "connects the pair" true ((a, b) = (0, 1) || (a, b) = (1, 0))
  | _ -> Alcotest.fail "expected one edge");
  let tree = Steiner.build pts in
  check_float "length = manhattan" 7.0 (Steiner.length tree)

let test_steiner_point_helps () =
  (* Three corners of an L: the median point saves length over the
     MST. *)
  let pts = [| Point.make 0.0 0.0; Point.make 2.0 0.0; Point.make 1.0 2.0 |] in
  let tree = Steiner.build pts in
  check "connected" true (Steiner.connected tree);
  (* MST: 2 + 3 = 5; star through median (1,0): 1 + 1 + 2 = 4. *)
  check "refinement saves wire" true (Steiner.length tree <= 4.0 +. 1e-9)

let prop_steiner_connected_and_bounded =
  QCheck2.Test.make ~count:80 ~name:"steiner tree connects pins, between hpwl/2 and mst length"
    QCheck2.Gen.(pair (int_range 2 10) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let pts = random_points rng n in
      let tree = Steiner.build pts in
      let mst_len =
        List.fold_left
          (fun acc (a, b) -> acc +. Point.manhattan pts.(a) pts.(b))
          0.0 (Steiner.mst pts)
      in
      let hpwl = Lacr_oracle.Geometry.hpwl (Array.to_list pts) in
      Steiner.connected tree
      && Steiner.length tree <= mst_len +. 1e-9
      && Steiner.length tree >= (hpwl /. 2.0) -. 1e-9)

(* --- grid fixture --- *)

let grid_fixture () =
  let blocks = [| Block.soft ~name:"a" 6.0; Block.soft ~name:"b" 6.0 |] in
  let nets = [ { Annealer.pins = [| 0; 1 |]; weight = 1.0 } ] in
  let result = Annealer.floorplan (Rng.create 3) blocks nets in
  let fp = Floorplan.of_packing ~whitespace:0.4 blocks result.Annealer.packing in
  Tilegraph.build
    ~config:{ Tilegraph.default_config with Tilegraph.grid = 8; edge_capacity = 2.0 }
    fp ~logic_area:[| 4.0; 4.0 |]

let valid_path tg path =
  let rec ok = function
    | a :: (b :: _ as rest) -> List.mem b (Tilegraph.cell_neighbors tg a) && ok rest
    | [ _ ] | [] -> true
  in
  ok path

(* Randomized demand + history over a fixture usage: random unit
   paths, then a couple of history-charging rounds so both cost terms
   are live for the engine-equivalence property. *)
let randomize_usage rng tg usage =
  let n = Tilegraph.num_cells tg in
  for _i = 1 to 40 + Rng.int rng 60 do
    let c = Rng.int rng n in
    match Tilegraph.cell_neighbors tg c with
    | [] -> ()
    | neighbors ->
      let pick = List.nth neighbors (Rng.int rng (List.length neighbors)) in
      Maze.add_path usage [ c; pick ]
  done;
  Maze.charge_history usage ~decay:0.6;
  for _i = 1 to 20 + Rng.int rng 40 do
    let c = Rng.int rng n in
    match Tilegraph.cell_neighbors tg c with
    | [] -> ()
    | neighbors ->
      let pick = List.nth neighbors (Rng.int rng (List.length neighbors)) in
      Maze.add_path usage [ c; pick ]
  done;
  Maze.charge_history usage ~decay:0.6

(* --- maze --- *)

let test_maze_route_connects () =
  let tg = grid_fixture () in
  let usage = Maze.create tg in
  let sc = Maze.create_scratch usage in
  let src = 0 and dst = Tilegraph.num_cells tg - 1 in
  let path = Maze.route usage sc ~congestion_weight:1.0 ~src ~dst () in
  (match path with
  | [] -> Alcotest.fail "empty path"
  | first :: _ ->
    check_int "starts at src" src first;
    check_int "ends at dst" dst (List.nth path (List.length path - 1)));
  check "steps are adjacent" true (valid_path tg path);
  (* Shortest without congestion: manhattan distance in steps. *)
  let nx, _ = Tilegraph.grid_dims tg in
  let steps = List.length path - 1 in
  let expected = abs ((src mod nx) - (dst mod nx)) + abs ((src / nx) - (dst / nx)) in
  check_int "shortest on empty grid" expected steps

let test_maze_same_cell () =
  let tg = grid_fixture () in
  let usage = Maze.create tg in
  let sc = Maze.create_scratch usage in
  check "singleton" true (Maze.route usage sc ~congestion_weight:1.0 ~src:3 ~dst:3 () = [ 3 ])

let test_maze_usage_accounting () =
  let tg = grid_fixture () in
  let usage = Maze.create tg in
  let sc = Maze.create_scratch usage in
  let path = Maze.route usage sc ~congestion_weight:1.0 ~src:0 ~dst:3 () in
  Maze.add_path usage path;
  check_float "one track on first hop" 1.0 (Maze.demand usage 0 1);
  Maze.add_path usage path;
  check_float "two tracks" 2.0 (Maze.demand usage 0 1);
  check "utilization reflects" true (Maze.max_utilization usage >= 1.0 -. 1e-9);
  Maze.remove_path usage path;
  Maze.remove_path usage path;
  check_float "removed" 0.0 (Maze.demand usage 0 1);
  check_float "no overflow" 0.0 (Maze.overflow usage)

let test_maze_avoids_congestion () =
  let tg = grid_fixture () in
  let usage = Maze.create tg in
  let sc = Maze.create_scratch usage in
  (* Saturate the direct horizontal corridor between 0 and 2. *)
  for _i = 1 to 8 do
    Maze.add_path usage [ 0; 1; 2 ]
  done;
  let path = Maze.route usage sc ~congestion_weight:10.0 ~src:0 ~dst:2 () in
  check "routes around" true (not (List.mem 1 path) || List.length path > 3);
  check "still arrives" true (List.nth path (List.length path - 1) = 2)

let test_maze_scratch_reuse () =
  (* The same scratch must give identical answers across many queries:
     epoch stamping fully isolates them. *)
  let tg = grid_fixture () in
  let usage = Maze.create tg in
  let sc = Maze.create_scratch usage in
  let n = Tilegraph.num_cells tg in
  let rng = Rng.create 11 in
  for _i = 1 to 50 do
    let src = Rng.int rng n and dst = Rng.int rng n in
    let reused = Maze.route usage sc ~congestion_weight:1.0 ~src ~dst () in
    let fresh =
      Maze.route usage (Maze.create_scratch usage) ~congestion_weight:1.0 ~src ~dst ()
    in
    check "reused scratch = fresh scratch" true (reused = fresh)
  done

let test_history_charge_decay () =
  let tg = grid_fixture () in
  let usage = Maze.create tg in
  (* cap = 2.0 in the fixture; demand 3 on one boundary = overflow 1. *)
  for _i = 1 to 3 do
    Maze.add_path usage [ 0; 1 ]
  done;
  check_float "history starts empty" 0.0 (Maze.history usage 0 1);
  Maze.charge_history usage ~decay:0.5;
  check_float "charged by overflow ratio" 0.5 (Maze.history usage 0 1);
  Maze.charge_history usage ~decay:0.5;
  check_float "decays and recharges" 0.75 (Maze.history usage 0 1);
  for _i = 1 to 3 do
    Maze.remove_path usage [ 0; 1 ]
  done;
  Maze.charge_history usage ~decay:0.5;
  check_float "pure decay once resolved" 0.375 (Maze.history usage 0 1);
  check_float "untouched boundary stays zero" 0.0 (Maze.history usage 2 3)

let test_checkpoint_restore () =
  let tg = grid_fixture () in
  let usage = Maze.create tg in
  Maze.add_path usage [ 0; 1; 2 ];
  let ck = Maze.checkpoint usage in
  Maze.add_path usage [ 0; 1; 2 ];
  Maze.add_path usage [ 0; 8 ];
  check_float "demand moved" 2.0 (Maze.demand usage 0 1);
  Maze.restore usage ck;
  check_float "restored h demand" 1.0 (Maze.demand usage 0 1);
  check_float "restored v demand" 0.0 (Maze.demand usage 0 8)

(* QCheck (a): both engines return cost-identical paths on random
   grids with random demand and history. *)
let prop_engines_cost_identical =
  QCheck2.Test.make ~count:60 ~name:"astar path cost = dijkstra path cost"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let tg = grid_fixture () in
      let usage = Maze.create tg in
      let rng = Rng.create seed in
      randomize_usage rng tg usage;
      let sc = Maze.create_scratch usage in
      let n = Tilegraph.num_cells tg in
      let src = Rng.int rng n and dst = Rng.int rng n in
      let cw = Rng.float rng 4.0 in
      let ends path =
        List.hd path = src && List.nth path (List.length path - 1) = dst
      in
      let dij = Maze.route usage sc ~engine:Maze.Dijkstra ~congestion_weight:cw ~src ~dst () in
      let ast = Maze.route usage sc ~engine:Maze.Astar ~congestion_weight:cw ~src ~dst () in
      let cost = Maze.path_cost usage ~congestion_weight:cw in
      valid_path tg dij && valid_path tg ast
      && ends dij && ends ast
      && cost ast = cost dij
      (* Dijkstra and A* share the tie-break, so they agree exactly. *)
      && ast = dij)

(* --- global router --- *)

let test_route_all_basic () =
  let tg = grid_fixture () in
  let n = Tilegraph.num_cells tg in
  let nets =
    [|
      { Global_router.source_cell = 0; sink_cells = [| n - 1; n / 2 |] };
      { Global_router.source_cell = n - 1; sink_cells = [| 0 |] };
    |]
  in
  let result = Global_router.route_all tg nets in
  check_int "both nets routed" 2 (Array.length result.Global_router.nets);
  Array.iter
    (fun routed ->
      Array.iteri
        (fun i path ->
          (match path with
          | [] -> Alcotest.fail "empty sink path"
          | first :: _ -> check_int "path starts at source" routed.Global_router.net.Global_router.source_cell first);
          let last = List.nth path (List.length path - 1) in
          check_int "path ends at sink" routed.Global_router.net.Global_router.sink_cells.(i) last;
          check "path cells adjacent" true (valid_path tg path))
        routed.Global_router.sink_paths)
    result.Global_router.nets;
  check "wirelength positive" true (result.Global_router.total_wirelength > 0.0)

let test_route_all_same_cell_net () =
  let tg = grid_fixture () in
  let nets = [| { Global_router.source_cell = 5; sink_cells = [| 5; 5 |] } |] in
  let result = Global_router.route_all tg nets in
  let routed = result.Global_router.nets.(0) in
  check_int "no segments" 0 (List.length routed.Global_router.segments);
  Array.iter (fun p -> check "trivial sink path" true (p = [ 5 ])) routed.Global_router.sink_paths

let random_nets rng tg count =
  let n = Tilegraph.num_cells tg in
  Array.init count (fun _ ->
      {
        Global_router.source_cell = Rng.int rng n;
        sink_cells = Array.init (1 + Rng.int rng 3) (fun _ -> Rng.int rng n);
      })

let test_reroute_reduces_overflow () =
  let tg = grid_fixture () in
  let rng = Rng.create 9 in
  (* Many random nets across a tiny-capacity grid. *)
  let nets = random_nets rng tg 30 in
  let no_reroute = Global_router.route_all ~passes:0 tg nets in
  let with_reroute = Global_router.route_all tg nets in
  check "reroute not worse" true
    (with_reroute.Global_router.overflow <= no_reroute.Global_router.overflow +. 1e-9)

let prop_sink_paths_on_tree =
  QCheck2.Test.make ~count:40 ~name:"sink paths are valid and start/end correctly"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let tg = grid_fixture () in
      let n = Tilegraph.num_cells tg in
      let rng = Rng.create seed in
      let net =
        {
          Global_router.source_cell = Rng.int rng n;
          sink_cells = Array.init (1 + Rng.int rng 4) (fun _ -> Rng.int rng n);
        }
      in
      let result = Global_router.route_all tg [| net |] in
      let routed = result.Global_router.nets.(0) in
      Array.for_all2
        (fun sink path ->
          valid_path tg path
          && List.length path >= 1
          && List.hd path = net.Global_router.source_cell
          && List.nth path (List.length path - 1) = sink)
        net.Global_router.sink_cells routed.Global_router.sink_paths)

(* QCheck (b): the routed result is bit-identical for 1, 2 and 4
   worker domains — the pool only builds topologies and recovers sink
   paths, each a pure function of one net. *)
let prop_domains_bit_identical =
  QCheck2.Test.make ~count:10 ~name:"route_all bit-identical for domains 1/2/4"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let tg = grid_fixture () in
      let rng = Rng.create seed in
      let nets = random_nets rng tg 25 in
      let route size =
        Pool.with_pool ~size (fun pool -> Global_router.route_all ~pool tg nets)
      in
      let r1 = route 1 and r2 = route 2 and r4 = route 4 in
      let same a b =
        a.Global_router.nets = b.Global_router.nets
        && a.Global_router.total_wirelength = b.Global_router.total_wirelength
        && a.Global_router.overflow = b.Global_router.overflow
        && a.Global_router.max_utilization = b.Global_router.max_utilization
        && a.Global_router.pass_overflow = b.Global_router.pass_overflow
      in
      same r1 r2 && same r1 r4)

(* QCheck (c): with the history term on, the per-pass overflow
   trajectory never increases. *)
let prop_overflow_non_increasing =
  QCheck2.Test.make ~count:30 ~name:"ripup overflow trajectory is non-increasing"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let tg = grid_fixture () in
      let rng = Rng.create seed in
      let nets = random_nets rng tg (25 + Rng.int rng 25) in
      let result = Global_router.route_all ~passes:4 tg nets in
      let po = result.Global_router.pass_overflow in
      let ok = ref (Array.length po >= 1) in
      for i = 0 to Array.length po - 2 do
        if po.(i + 1) > po.(i) +. 1e-9 then ok := false
      done;
      !ok && result.Global_router.overflow = po.(Array.length po - 1))

(* --- fallbacks and sanitizer --- *)

let test_sink_recovery_fallback_counted () =
  let tg = grid_fixture () in
  (* Segments that do not reach sink 5: the recovery degrades to a
     fabricated direct link and counts it. *)
  let ctx = Trace.create () in
  let fallbacks = Trace.counter ctx "route.fallbacks" in
  let paths =
    Global_router.sink_paths_of_segments tg ~fallbacks ~source:0 ~sinks:[| 5; 1 |]
      [ [ 0; 1 ] ]
  in
  check "disconnected sink fabricated" true (paths.(0) = [ 0; 5 ]);
  check "connected sink recovered" true (paths.(1) = [ 0; 1 ]);
  check "fallback counted" true (Trace.counter_totals ctx = [ ("route.fallbacks", 1) ])

let test_sink_recovery_raises_under_sanitize () =
  let tg = grid_fixture () in
  Alcotest.check_raises "disconnected sink raises"
    (Maze.Routing_error { src = 0; dst = 5; reason = "sink not connected to routed segments" })
    (fun () ->
      Sanitize.with_enabled true (fun () ->
          ignore
            (Global_router.sink_paths_of_segments tg ~source:0 ~sinks:[| 5 |] [ [ 0; 1 ] ])))

let test_demand_consistency_check () =
  let tg = grid_fixture () in
  let usage = Maze.create tg in
  Maze.add_path usage [ 0; 1; 2 ];
  (* Consistent: the committed segments explain the demand. *)
  Sanitize.with_enabled true (fun () ->
      Maze.assert_demand_consistent usage ~segments:[ [ 0; 1; 2 ] ]);
  (* Inconsistent: demand exists that no segment explains. *)
  let raised =
    try
      Sanitize.with_enabled true (fun () -> Maze.assert_demand_consistent usage ~segments:[]);
      false
    with Sanitize.Violation { invariant; _ } ->
      check "names the invariant" true (String.equal invariant "route.usage");
      true
  in
  check "drift detected" true raised

let test_route_all_sanitized_identical () =
  let tg = grid_fixture () in
  let rng = Rng.create 17 in
  let nets = random_nets rng tg 20 in
  let plain = Global_router.route_all tg nets in
  let sanitized = Sanitize.with_enabled true (fun () -> Global_router.route_all tg nets) in
  check "sanitizer does not change routing" true
    (plain.Global_router.nets = sanitized.Global_router.nets
    && plain.Global_router.pass_overflow = sanitized.Global_router.pass_overflow)

(* --- routed-wirelength pins (seed-trajectory guards) --- *)

module Build = Lacr_core.Build
module Suite = Lacr_circuits.Suite

let routing_of netlist =
  match Build.build netlist with
  | Error msg -> Alcotest.fail msg
  | Ok inst -> inst.Build.routing

let routed_wirelength netlist =
  let r = routing_of netlist in
  (r.Build.total_wirelength, r.Build.overflow)

let suite_circuit name =
  match Suite.by_name name with Some n -> n | None -> Alcotest.fail (name ^ " missing")

let test_pin_s27 () =
  let wl, ov = routed_wirelength (Suite.s27 ()) in
  Alcotest.(check (float 1e-4)) "s27 routed wirelength" 53.554925 wl;
  Alcotest.(check (float 1e-9)) "s27 overflow" 0.0 ov

let test_pin_s386 () =
  let wl, ov = routed_wirelength (suite_circuit "s386") in
  Alcotest.(check (float 1e-4)) "s386 routed wirelength" 845.539161 wl;
  Alcotest.(check (float 1e-9)) "s386 overflow" 0.0 ov

(* s1196 overflows after the initial pass, so this pin runs the rip-up
   passes' checkpoint/revert loop on a real circuit. *)
let test_pin_s1196 () =
  let r = routing_of (suite_circuit "s1196") in
  check_int "s1196 nets" 344 (Array.length r.Build.nets);
  Alcotest.(check (float 1e-4)) "s1196 routed wirelength" 3517.603919
    r.Build.total_wirelength;
  Alcotest.(check (float 1e-9)) "s1196 overflow" 0.0 r.Build.overflow;
  Alcotest.(check (array (float 1e-9)))
    "s1196 pass overflow" [| 25.; 2.; 0. |] r.Build.pass_overflow

let suite =
  [
    Alcotest.test_case "mst two points" `Quick test_mst_two_points;
    Alcotest.test_case "steiner point helps" `Quick test_steiner_point_helps;
    QCheck_alcotest.to_alcotest prop_steiner_connected_and_bounded;
    Alcotest.test_case "maze route connects" `Quick test_maze_route_connects;
    Alcotest.test_case "maze same cell" `Quick test_maze_same_cell;
    Alcotest.test_case "maze usage accounting" `Quick test_maze_usage_accounting;
    Alcotest.test_case "maze avoids congestion" `Quick test_maze_avoids_congestion;
    Alcotest.test_case "maze scratch reuse" `Quick test_maze_scratch_reuse;
    Alcotest.test_case "history charge and decay" `Quick test_history_charge_decay;
    Alcotest.test_case "checkpoint restore" `Quick test_checkpoint_restore;
    QCheck_alcotest.to_alcotest prop_engines_cost_identical;
    Alcotest.test_case "route_all basic" `Quick test_route_all_basic;
    Alcotest.test_case "route_all same-cell net" `Quick test_route_all_same_cell_net;
    Alcotest.test_case "reroute reduces overflow" `Quick test_reroute_reduces_overflow;
    QCheck_alcotest.to_alcotest prop_sink_paths_on_tree;
    QCheck_alcotest.to_alcotest prop_domains_bit_identical;
    QCheck_alcotest.to_alcotest prop_overflow_non_increasing;
    Alcotest.test_case "sink fallback counted" `Quick test_sink_recovery_fallback_counted;
    Alcotest.test_case "sink fallback raises under sanitize" `Quick
      test_sink_recovery_raises_under_sanitize;
    Alcotest.test_case "demand consistency check" `Quick test_demand_consistency_check;
    Alcotest.test_case "sanitized routing identical" `Quick test_route_all_sanitized_identical;
    Alcotest.test_case "pin: s27 routed wirelength" `Quick test_pin_s27;
    Alcotest.test_case "pin: s386 routed wirelength" `Quick test_pin_s386;
    Alcotest.test_case "pin: s1196 routed result" `Quick test_pin_s1196;
  ]
