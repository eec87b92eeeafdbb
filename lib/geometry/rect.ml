type t = { x : float; y : float; w : float; h : float }

let make ~x ~y ~w ~h =
  if w < 0.0 || h < 0.0 then invalid_arg "Rect.make: negative extent";
  { x; y; w; h }

let area r = r.w *. r.h

let contains r (p : Point.t) =
  p.Point.x >= r.x && p.Point.x < r.x +. r.w && p.Point.y >= r.y && p.Point.y < r.y +. r.h

(* A femtometre-scale tolerance so packings assembled by summing float
   extents in different association orders do not report phantom
   overlaps where blocks merely touch. *)
let touch_tolerance = 1e-9

let overlaps a b =
  a.x < b.x +. b.w -. touch_tolerance
  && b.x < a.x +. a.w -. touch_tolerance
  && a.y < b.y +. b.h -. touch_tolerance
  && b.y < a.y +. a.h -. touch_tolerance

let intersection a b =
  let x0 = max a.x b.x and y0 = max a.y b.y in
  let x1 = min (a.x +. a.w) (b.x +. b.w) and y1 = min (a.y +. a.h) (b.y +. b.h) in
  if x1 > x0 && y1 > y0 then Some { x = x0; y = y0; w = x1 -. x0; h = y1 -. y0 } else None

let union_bbox a b =
  let x0 = min a.x b.x and y0 = min a.y b.y in
  let x1 = max (a.x +. a.w) (b.x +. b.w) and y1 = max (a.y +. a.h) (b.y +. b.h) in
  { x = x0; y = y0; w = x1 -. x0; h = y1 -. y0 }
