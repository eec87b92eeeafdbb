module Rect = Lacr_geometry.Rect

type net = { pins : int array; weight : float }

type options = {
  initial_temperature : float;
  cooling : float;
  moves_per_stage : int;
  stages : int;
  area_weight : float;
  wirelength_weight : float;
  shape_choices : int;
}

let default_options =
  {
    initial_temperature = 1.0e3;
    cooling = 0.92;
    moves_per_stage = 60;
    stages = 70;
    area_weight = 1.0;
    wirelength_weight = 0.5;
    shape_choices = 5;
  }

type result = {
  sequence : Sequence_pair.t;
  dims : (float * float) array;
  packing : Sequence_pair.packing;
  cost : float;
}

(* Area plus the nets' weighted half-perimeter wire length over the
   block centres, summed in net order.  The annealer evaluates this on
   every move, so each net's bounding box is kept in float locals: no
   centre point, list or tuple per pin, and the same float operations
   in the same order as folding [min]/[max] over the centre points. *)
let cost options (nets : net array) (packing : Sequence_pair.packing) =
  let rects = packing.Sequence_pair.rects in
  let wirelength = ref 0.0 in
  for k = 0 to Array.length nets - 1 do
    let { pins; weight } = nets.(k) in
    let hpwl =
      if Array.length pins < 2 then 0.0
      else begin
        let r = rects.(pins.(0)) in
        let x = r.Rect.x +. (r.Rect.w /. 2.0) and y = r.Rect.y +. (r.Rect.h /. 2.0) in
        let xmin = ref x and xmax = ref x and ymin = ref y and ymax = ref y in
        for i = 1 to Array.length pins - 1 do
          let r = rects.(pins.(i)) in
          let x = r.Rect.x +. (r.Rect.w /. 2.0) and y = r.Rect.y +. (r.Rect.h /. 2.0) in
          xmin := if !xmin <= x then !xmin else x;
          xmax := if !xmax >= x then !xmax else x;
          ymin := if !ymin <= y then !ymin else y;
          ymax := if !ymax >= y then !ymax else y
        done;
        !xmax -. !xmin +. (!ymax -. !ymin)
      end
    in
    wirelength := !wirelength +. (weight *. hpwl)
  done;
  let area = packing.Sequence_pair.width *. packing.Sequence_pair.height in
  (options.area_weight *. area) +. (options.wirelength_weight *. !wirelength)

let cost_of options _blocks nets packing = cost options (Array.of_list nets) packing

let floorplan rng blocks nets =
  let options = default_options in
  let n = Array.length blocks in
  if n = 0 then invalid_arg "Annealer.floorplan: no blocks";
  List.iter
    (fun { pins; _ } ->
      Array.iter
        (fun b -> if b < 0 || b >= n then invalid_arg "Annealer.floorplan: net pin out of range")
        pins)
    nets;
  let shape_table =
    Array.map (fun b -> Array.of_list (Block.shapes b ~n_choices:options.shape_choices)) blocks
  in
  let shape_idx = Array.make n 0 in
  (* Start soft blocks near square. *)
  Array.iteri (fun b table -> shape_idx.(b) <- Array.length table / 2) shape_table;
  let dims_of () = Array.init n (fun b -> shape_table.(b).(shape_idx.(b))) in
  let sp = ref (Sequence_pair.random rng n) in
  let net_array = Array.of_list nets in
  let evaluate sp =
    let packing = Sequence_pair.pack sp ~dims:(dims_of ()) in
    (packing, cost options net_array packing)
  in
  let packing0, cost0 = evaluate !sp in
  let current_cost = ref cost0 in
  let best = ref { sequence = !sp; dims = dims_of (); packing = packing0; cost = cost0 } in
  let temperature = ref options.initial_temperature in
  for _stage = 1 to options.stages do
    for _move = 1 to options.moves_per_stage do
      if n > 1 then begin
        let kind = Lacr_util.Rng.int rng 3 in
        let i = Lacr_util.Rng.int rng n and j = Lacr_util.Rng.int rng n in
        let undo = ref (fun () -> ()) in
        let candidate =
          match kind with
          | 0 when i <> j -> Sequence_pair.swap_pos !sp i j
          | 1 when i <> j -> Sequence_pair.swap_both !sp i j
          | _ ->
            (* Reshape a random soft block. *)
            let b = Lacr_util.Rng.int rng n in
            let table = shape_table.(b) in
            if Array.length table > 1 then begin
              let old = shape_idx.(b) in
              let fresh = Lacr_util.Rng.int rng (Array.length table) in
              shape_idx.(b) <- fresh;
              undo := (fun () -> shape_idx.(b) <- old)
            end;
            !sp
        in
        let packing, cost = evaluate candidate in
        let accept =
          cost <= !current_cost
          || Lacr_util.Rng.float rng 1.0 < exp ((!current_cost -. cost) /. !temperature)
        in
        if accept then begin
          sp := candidate;
          current_cost := cost;
          if cost < !best.cost then
            best := { sequence = candidate; dims = dims_of (); packing; cost }
        end
        else !undo ()
      end
    done;
    temperature := !temperature *. options.cooling
  done;
  !best
