module Tilegraph = Lacr_tilegraph.Tilegraph

exception Routing_error of { src : int; dst : int; reason : string }

let () =
  Printexc.register_printer (function
    | Routing_error { src; dst; reason } ->
      Some (Printf.sprintf "Maze.Routing_error(%d -> %d): %s" src dst reason)
    | _ -> None)

(* Path costs are fixed-point integers (2^20 units per mm) so the
   search runs on the monomorphic {!Lacr_util.Int_heap} with exact
   integer comparisons — no float rounding on the priority path, and a
   total (cost, cell-id) order for deterministic tie-breaking. *)
let scale = 1 lsl 20

let fixed f = int_of_float ((f *. float_of_int scale) +. 0.5)

(* Boundaries are indexed separately for horizontal moves (between
   column-adjacent cells) and vertical moves. *)
type usage = {
  nx : int;
  ny : int;
  n : int;
  cap : float;
  pitch_x : float;
  pitch_y : float;
  unit_x : int;  (* fixed(pitch_x): admissible per-step cost lower bound *)
  unit_y : int;
  blockage : float array;  (* per-cell blockage multiplier, >= 1.0 *)
  h : float array;  (* (nx-1) * ny: boundary right of (row, col) *)
  v : float array;  (* nx * (ny-1): boundary above (row, col) *)
  h_hist : float array;  (* negotiated-congestion history per boundary *)
  v_hist : float array;
}

let create tg =
  let nx, ny = Tilegraph.grid_dims tg in
  let n = nx * ny in
  let pitch_x, pitch_y = Tilegraph.cell_pitch tg in
  let tiles = Tilegraph.tiles tg in
  (* Mild blockage pricing: wires may cross hard macros on upper
     metal, but detours are preferred so that repeater sites inside
     macros stay scarce. *)
  let blockage =
    Array.init n (fun cell ->
        match tiles.(Tilegraph.tile_of_cell tg cell).Tilegraph.kind with
        | Tilegraph.Hard_cell _ -> 1.6
        | Tilegraph.Soft_merged _ -> 1.2
        | Tilegraph.Channel -> 1.0)
  in
  {
    nx;
    ny;
    n;
    cap = (Tilegraph.config tg).Tilegraph.edge_capacity;
    pitch_x;
    pitch_y;
    unit_x = fixed pitch_x;
    unit_y = fixed pitch_y;
    blockage;
    h = Array.make ((nx - 1) * ny) 0.0;
    v = Array.make (nx * (ny - 1)) 0.0;
    h_hist = Array.make ((nx - 1) * ny) 0.0;
    v_hist = Array.make (nx * (ny - 1)) 0.0;
  }

let capacity u = u.cap

(* Locate the boundary between two adjacent cells. *)
let boundary u a b =
  let nx = u.nx in
  let ra = a / nx and ca = a mod nx in
  let rb = b / nx and cb = b mod nx in
  if ra = rb && abs (ca - cb) = 1 then `H ((ra * (nx - 1)) + min ca cb)
  else if ca = cb && abs (ra - rb) = 1 then `V ((min ra rb * nx) + ca)
  else invalid_arg "Maze: cells not adjacent"

let demand u a b = match boundary u a b with `H i -> u.h.(i) | `V i -> u.v.(i)

let history u a b = match boundary u a b with `H i -> u.h_hist.(i) | `V i -> u.v_hist.(i)

let bump u a b delta =
  match boundary u a b with
  | `H i -> u.h.(i) <- Float.max 0.0 (u.h.(i) +. delta)
  | `V i -> u.v.(i) <- Float.max 0.0 (u.v.(i) +. delta)

let rec iter_steps f = function
  | a :: (b :: _ as rest) ->
    f a b;
    iter_steps f rest
  | [ _ ] | [] -> ()

let add_path u path = iter_steps (fun a b -> bump u a b 1.0) path
let remove_path u path = iter_steps (fun a b -> bump u a b (-1.0)) path

let max_utilization u =
  let hi = Array.fold_left Float.max 0.0 u.h and vi = Array.fold_left Float.max 0.0 u.v in
  Float.max hi vi /. u.cap

let overflow u =
  let over acc d = if d > u.cap then acc +. (d -. u.cap) else acc in
  Array.fold_left over (Array.fold_left over 0.0 u.h) u.v

(* Penalty shaping: gentle below 70% utilization, linear ramp to 1.0
   at capacity, quadratic beyond — overflowed boundaries quickly price
   themselves out during re-route passes. *)
let congestion_penalty ~after_cap ~cap =
  let ratio = after_cap /. cap in
  if ratio <= 0.7 then 0.1 *. ratio
  else if ratio <= 1.0 then 0.1 +. (3.0 *. (ratio -. 0.7))
  else 1.0 +. ((ratio -. 1.0) *. (ratio -. 1.0) *. 20.0)

(* Negotiated-congestion history (PathFinder, McMurchie & Ebeling):
   each rip-up pass decays the accumulated term and charges every
   currently overflowed boundary in proportion to its overflow, so
   boundaries that stay contested get progressively more expensive and
   the passes converge instead of oscillating between equal-cost
   alternatives. *)
let charge_history u ~decay =
  let charge hist dem =
    for i = 0 to Array.length hist - 1 do
      let over = dem.(i) -. u.cap in
      hist.(i) <- (hist.(i) *. decay) +. (if over > 0.0 then over /. u.cap else 0.0)
    done
  in
  charge u.h_hist u.h;
  charge u.v_hist u.v

type checkpoint = {
  ck_h : float array;
  ck_v : float array;
}

let checkpoint u = { ck_h = Array.copy u.h; ck_v = Array.copy u.v }

let restore u ck =
  Array.blit ck.ck_h 0 u.h 0 (Array.length u.h);
  Array.blit ck.ck_v 0 u.v 0 (Array.length u.v)

(* Recompute per-boundary demand from scratch and compare against the
   incremental accounting — catches add/remove drift hidden by the
   clamp in [bump].  Call sites gate on [Sanitize.enabled]. *)
let assert_demand_consistent u ~segments =
  let invariant = "route.usage" in
  let h = Array.make (Array.length u.h) 0.0 in
  let v = Array.make (Array.length u.v) 0.0 in
  List.iter
    (iter_steps (fun a b ->
         match boundary u a b with
         | `H i -> h.(i) <- h.(i) +. 1.0
         | `V i -> v.(i) <- v.(i) +. 1.0))
    segments;
  let compare_arrays tag fresh live =
    for i = 0 to Array.length fresh - 1 do
      if Float.abs (fresh.(i) -. live.(i)) > 1e-6 then
        Lacr_util.Sanitize.fail ~invariant
          (Printf.sprintf
             "%s boundary %d: incremental demand %g, recomputed from segments %g" tag i
             live.(i) fresh.(i))
    done
  in
  compare_arrays "horizontal" h u.h;
  compare_arrays "vertical" v u.v

(* --- search engine ----------------------------------------------------- *)

type engine =
  | Dijkstra
  | Astar

(* Reusable search state.  All visitation arrays are epoch-stamped: a
   cell's [dist]/[prev] entries are only valid when its stamp equals
   the current epoch, so starting a new query is one integer increment
   instead of three O(n) array fills. *)
type scratch = {
  s_n : int;
  cell_bits : int;  (* priorities pack (cost << cell_bits) | cell *)
  max_dist : int;  (* saturation bound keeping packed priorities in range *)
  mutable epoch : int;
  seen_f : int array;
  done_f : int array;
  dist_f : int array;
  prev_f : int array;
  heap_f : Lacr_util.Int_heap.t;
}

let create_scratch u =
  let n = u.n in
  let rec bits k = if 1 lsl k >= n then k else bits (k + 1) in
  let cell_bits = bits 1 in
  {
    s_n = n;
    cell_bits;
    max_dist = max_int asr (cell_bits + 1);
    epoch = 0;
    seen_f = Array.make n 0;
    done_f = Array.make n 0;
    dist_f = Array.make n 0;
    prev_f = Array.make n (-1);
    heap_f = Lacr_util.Int_heap.create ~capacity:(max 16 n) ();
  }

(* Fixed-point cost of one step onto [next] across boundary [i]
   (horizontal when [horiz]).  The multiplier is always >= 1
   (blockage >= 1, penalties >= 0), which is what makes the
   plain-pitch A* heuristic admissible. *)
let step_cost u ~congestion_weight ~horiz i next =
  let dem, hist = if horiz then (u.h.(i), u.h_hist.(i)) else (u.v.(i), u.v_hist.(i)) in
  let penalty = congestion_penalty ~after_cap:(dem +. 1.0) ~cap:u.cap in
  let pitch = if horiz then u.pitch_x else u.pitch_y in
  fixed (pitch *. u.blockage.(next) *. (1.0 +. (congestion_weight *. (penalty +. hist))))

let sat_add sc a b = if a >= sc.max_dist - b then sc.max_dist else a + b

(* Admissible lower bound on the remaining cost: every path needs at
   least the Manhattan column/row steps, each costing at least the
   plain fixed-point pitch ([step_cost] multiplier >= 1, and [fixed]
   is monotone). *)
let heuristic u ~dr ~dc row col =
  (abs (col - dc) * u.unit_x) + (abs (row - dr) * u.unit_y)

(* Walk the predecessor chain from [cell] back to the search's seed. *)
let rec walk_prev prev cell seed acc =
  if cell = seed then seed :: acc else walk_prev prev prev.(cell) seed (cell :: acc)

(* Unidirectional search: Dijkstra when [use_h] is false, A* when
   true.  The heap priority packs ((g + h) << cell_bits) | cell so
   pops are ordered by cost then cell id; on cost ties the lower
   parent id wins [prev].  With the consistent heuristic above, every
   settled cell has its exact distance, so the A* result is provably
   cost-identical to Dijkstra. *)
let search_uni u sc ~use_h ~congestion_weight ~src ~dst =
  let nx = u.nx and ny = u.ny in
  sc.epoch <- sc.epoch + 1;
  let epoch = sc.epoch in
  let seen = sc.seen_f and done_ = sc.done_f and dist = sc.dist_f and prev = sc.prev_f in
  let heap = sc.heap_f in
  Lacr_util.Int_heap.clear heap;
  let dr = dst / nx and dc = dst mod nx in
  let h_of cell = if use_h then heuristic u ~dr ~dc (cell / nx) (cell mod nx) else 0 in
  seen.(src) <- epoch;
  dist.(src) <- 0;
  prev.(src) <- src;
  Lacr_util.Int_heap.push heap ~prio:(h_of src lsl sc.cell_bits lor src) src;
  let finished = ref false in
  while (not !finished) && not (Lacr_util.Int_heap.is_empty heap) do
    let cell = Lacr_util.Int_heap.pop_min heap in
    if done_.(cell) <> epoch then begin
      done_.(cell) <- epoch;
      if cell = dst then finished := true
      else begin
        let row = cell / nx and col = cell mod nx in
        let g = dist.(cell) in
        let relax next ~horiz i =
          if done_.(next) <> epoch then begin
            let nd = sat_add sc g (step_cost u ~congestion_weight ~horiz i next) in
            if seen.(next) <> epoch || nd < dist.(next) then begin
              seen.(next) <- epoch;
              dist.(next) <- nd;
              prev.(next) <- cell;
              Lacr_util.Int_heap.push heap
                ~prio:(sat_add sc nd (h_of next) lsl sc.cell_bits lor next)
                next
            end
            else if nd = dist.(next) && cell < prev.(next) then prev.(next) <- cell
          end
        in
        if col + 1 < nx then relax (cell + 1) ~horiz:true ((row * (nx - 1)) + col);
        if col > 0 then relax (cell - 1) ~horiz:true ((row * (nx - 1)) + col - 1);
        if row + 1 < ny then relax (cell + nx) ~horiz:false ((row * nx) + col);
        if row > 0 then relax (cell - nx) ~horiz:false (((row - 1) * nx) + col)
      end
    end
  done;
  if done_.(dst) = epoch then Some (walk_prev prev dst src []) else None

let route u sc ?(engine = Astar) ~congestion_weight ~src ~dst () =
  if src = dst then [ src ]
  else begin
    let found =
      match engine with
      | Dijkstra -> search_uni u sc ~use_h:false ~congestion_weight ~src ~dst
      | Astar -> search_uni u sc ~use_h:true ~congestion_weight ~src ~dst
    in
    match found with
    | Some path -> path
    | None ->
      (* Structurally impossible on a connected tile grid; reachable
         only through index corruption, which is exactly what the
         sanitizer should surface instead of a silent degenerate
         route.  Callers count the fallback in route.fallbacks. *)
      if Lacr_util.Sanitize.enabled () then
        raise (Routing_error { src; dst; reason = "no path on the tile grid" })
      else [ src ]
  end

(* The exact fixed-point cost [route] minimizes, recomputed over an
   explicit path — the oracle for the engine-equivalence properties. *)
let path_cost u ~congestion_weight path =
  let total = ref 0 in
  iter_steps
    (fun a b ->
      let horiz, i = match boundary u a b with `H i -> (true, i) | `V i -> (false, i) in
      total := !total + step_cost u ~congestion_weight ~horiz i b)
    path;
  !total
