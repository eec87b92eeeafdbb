module Point = Lacr_geometry.Point
module Rect = Lacr_geometry.Rect
module Annealer = Lacr_floorplan.Annealer
module Sequence_pair = Lacr_floorplan.Sequence_pair

let center (r : Rect.t) = Point.make (r.Rect.x +. (r.Rect.w /. 2.0)) (r.Rect.y +. (r.Rect.h /. 2.0))

let hpwl points =
  match points with
  | [] | [ _ ] -> 0.0
  | (p : Point.t) :: rest ->
    let init = (p.Point.x, p.Point.x, p.Point.y, p.Point.y) in
    let fold (xmin, xmax, ymin, ymax) (q : Point.t) =
      (min xmin q.Point.x, max xmax q.Point.x, min ymin q.Point.y, max ymax q.Point.y)
    in
    let xmin, xmax, ymin, ymax = List.fold_left fold init rest in
    xmax -. xmin +. (ymax -. ymin)

let annealer_cost (options : Annealer.options) nets (packing : Sequence_pair.packing) =
  let area = packing.Sequence_pair.width *. packing.Sequence_pair.height in
  let centers = Array.map center packing.Sequence_pair.rects in
  let net_hpwl { Annealer.pins; weight } =
    let points = Array.to_list (Array.map (fun b -> centers.(b)) pins) in
    weight *. hpwl points
  in
  let wirelength = List.fold_left (fun acc n -> acc +. net_hpwl n) 0.0 nets in
  (options.Annealer.area_weight *. area) +. (options.Annealer.wirelength_weight *. wirelength)
