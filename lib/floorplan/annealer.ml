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

let cost_of options _blocks nets (packing : Sequence_pair.packing) =
  let area = packing.Sequence_pair.width *. packing.Sequence_pair.height in
  let centers = Array.map Lacr_geometry.Rect.center packing.Sequence_pair.rects in
  let net_hpwl { pins; weight } =
    let points = Array.to_list (Array.map (fun b -> centers.(b)) pins) in
    weight *. Lacr_geometry.Rect.hpwl points
  in
  let wirelength = List.fold_left (fun acc n -> acc +. net_hpwl n) 0.0 nets in
  (options.area_weight *. area) +. (options.wirelength_weight *. wirelength)

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
  let evaluate sp =
    let packing = Sequence_pair.pack sp ~dims:(dims_of ()) in
    (packing, cost_of options blocks nets packing)
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
