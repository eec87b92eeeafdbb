type t = { x : float; y : float }

let make x y = { x; y }

let origin = { x = 0.0; y = 0.0 }

let manhattan a b = abs_float (a.x -. b.x) +. abs_float (a.y -. b.y)

let euclidean a b =
  let dx = a.x -. b.x and dy = a.y -. b.y in
  sqrt ((dx *. dx) +. (dy *. dy))

let midpoint a b = { x = (a.x +. b.x) /. 2.0; y = (a.y +. b.y) /. 2.0 }
