(* Geometry tests: Manhattan metric axioms (as QCheck properties),
   rectangle containment/overlap semantics, HPWL. *)

module Point = Lacr_geometry.Point
module Rect = Lacr_geometry.Rect
module Oracle = Lacr_oracle.Geometry

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let test_manhattan_basics () =
  let a = Point.make 0.0 0.0 and b = Point.make 3.0 4.0 in
  check_float "manhattan" 7.0 (Point.manhattan a b);
  check_float "euclidean" 5.0 (Point.euclidean a b);
  check_float "self distance" 0.0 (Point.manhattan a a);
  let m = Point.midpoint a b in
  check_float "midpoint x" 1.5 m.Point.x;
  check_float "midpoint y" 2.0 m.Point.y

let test_rect_contains_half_open () =
  let r = Rect.make ~x:0.0 ~y:0.0 ~w:2.0 ~h:2.0 in
  check "contains interior" true (Rect.contains r (Point.make 1.0 1.0));
  check "contains low edge" true (Rect.contains r (Point.make 0.0 0.0));
  check "excludes high edge" false (Rect.contains r (Point.make 2.0 1.0));
  check "excludes outside" false (Rect.contains r (Point.make 3.0 3.0))

let test_rect_overlap_strict () =
  let a = Rect.make ~x:0.0 ~y:0.0 ~w:2.0 ~h:2.0 in
  let b = Rect.make ~x:2.0 ~y:0.0 ~w:2.0 ~h:2.0 in
  let c = Rect.make ~x:1.0 ~y:1.0 ~w:2.0 ~h:2.0 in
  check "touching edges do not overlap" false (Rect.overlaps a b);
  check "interior overlap" true (Rect.overlaps a c);
  match Rect.intersection a c with
  | None -> Alcotest.fail "expected intersection"
  | Some i -> check_float "intersection area" 1.0 (Rect.area i)

let test_union_bbox () =
  let a = Rect.make ~x:0.0 ~y:0.0 ~w:1.0 ~h:1.0 in
  let b = Rect.make ~x:3.0 ~y:4.0 ~w:1.0 ~h:1.0 in
  let u = Rect.union_bbox a b in
  check_float "bbox w" 4.0 u.Rect.w;
  check_float "bbox h" 5.0 u.Rect.h

let test_hpwl () =
  check_float "hpwl empty" 0.0 (Oracle.hpwl []);
  check_float "hpwl single" 0.0 (Oracle.hpwl [ Point.make 1.0 1.0 ]);
  let pts = [ Point.make 0.0 0.0; Point.make 2.0 3.0; Point.make 1.0 5.0 ] in
  check_float "hpwl spread" 7.0 (Oracle.hpwl pts)

let point_gen =
  QCheck2.Gen.(
    let* x = float_bound_inclusive 100.0 in
    let* y = float_bound_inclusive 100.0 in
    return (Point.make x y))

let prop_manhattan_triangle =
  QCheck2.Test.make ~count:200 ~name:"manhattan satisfies the triangle inequality"
    QCheck2.Gen.(triple point_gen point_gen point_gen)
    (fun (a, b, c) ->
      Point.manhattan a c <= Point.manhattan a b +. Point.manhattan b c +. 1e-9)

let prop_manhattan_symmetric =
  QCheck2.Test.make ~count:200 ~name:"manhattan is symmetric"
    QCheck2.Gen.(pair point_gen point_gen)
    (fun (a, b) -> abs_float (Point.manhattan a b -. Point.manhattan b a) < 1e-9)

let prop_manhattan_dominates_euclidean =
  QCheck2.Test.make ~count:200 ~name:"manhattan >= euclidean"
    QCheck2.Gen.(pair point_gen point_gen)
    (fun (a, b) -> Point.manhattan a b +. 1e-9 >= Point.euclidean a b)

let prop_hpwl_lower_bounds_mst =
  (* HPWL of two points equals their Manhattan distance. *)
  QCheck2.Test.make ~count:200 ~name:"2-point hpwl = manhattan distance"
    QCheck2.Gen.(pair point_gen point_gen)
    (fun (a, b) -> abs_float (Oracle.hpwl [ a; b ] -. Point.manhattan a b) < 1e-9)

let suite =
  [
    Alcotest.test_case "manhattan basics" `Quick test_manhattan_basics;
    Alcotest.test_case "rect contains half-open" `Quick test_rect_contains_half_open;
    Alcotest.test_case "rect overlap strict" `Quick test_rect_overlap_strict;
    Alcotest.test_case "union bbox" `Quick test_union_bbox;
    Alcotest.test_case "hpwl" `Quick test_hpwl;
    QCheck_alcotest.to_alcotest prop_manhattan_triangle;
    QCheck_alcotest.to_alcotest prop_manhattan_symmetric;
    QCheck_alcotest.to_alcotest prop_manhattan_dominates_euclidean;
    QCheck_alcotest.to_alcotest prop_hpwl_lower_bounds_mst;
  ]
