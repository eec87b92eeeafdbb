(* Floorplan tests: sequence-pair packing semantics (non-overlap as a
   QCheck property), block shaping, annealer improvement, whitespace
   and soft-block expansion. *)

module Block = Lacr_floorplan.Block
module Sequence_pair = Lacr_floorplan.Sequence_pair
module Annealer = Lacr_floorplan.Annealer
module Floorplan = Lacr_floorplan.Floorplan
module Rect = Lacr_geometry.Rect
module Point = Lacr_geometry.Point
module Rng = Lacr_util.Rng

let check = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

let test_block_shapes () =
  let hard = Block.hard ~name:"h" ~width:2.0 ~height:3.0 in
  check_float "hard area" 6.0 (Block.area hard);
  check "hard not soft" false (Block.is_soft hard);
  (match Block.shapes hard ~n_choices:5 with
  | [ (w, h) ] ->
    check_float "hard width" 2.0 w;
    check_float "hard height" 3.0 h
  | _ -> Alcotest.fail "hard block has one shape");
  let soft = Block.soft ~name:"s" 9.0 in
  check_float "soft area" 9.0 (Block.area soft);
  let shapes = Block.shapes soft ~n_choices:5 in
  check "five choices" true (List.length shapes = 5);
  List.iter
    (fun (w, h) ->
      check "area preserved" true (abs_float ((w *. h) -. 9.0) < 1e-6);
      let aspect = w /. h in
      check "aspect in range" true (aspect > 0.33 -. 1e-6 && aspect < 3.0 +. 1e-6))
    shapes

let test_identity_pack_stacks () =
  (* Identity sequence pair means every block is left of the next. *)
  let sp = Sequence_pair.identity 3 in
  let dims = [| (1.0, 1.0); (2.0, 1.0); (1.0, 2.0) |] in
  let packing = Sequence_pair.pack sp ~dims in
  check_float "width is sum" 4.0 packing.Sequence_pair.width;
  check_float "height is max" 2.0 packing.Sequence_pair.height

let test_reversed_pack_stacks_vertically () =
  (* pos reversed w.r.t. neg means stacking bottom to top. *)
  let sp = { Sequence_pair.pos = [| 2; 1; 0 |]; neg = [| 0; 1; 2 |] } in
  let dims = [| (1.0, 1.0); (2.0, 1.0); (1.0, 2.0) |] in
  let packing = Sequence_pair.pack sp ~dims in
  check_float "width is max" 2.0 packing.Sequence_pair.width;
  check_float "height is sum" 4.0 packing.Sequence_pair.height

let test_validate () =
  check "identity valid" true (Sequence_pair.validate (Sequence_pair.identity 4) = Ok ());
  let bad = { Sequence_pair.pos = [| 0; 0; 2 |]; neg = [| 0; 1; 2 |] } in
  check "duplicate rejected" true (Result.is_error (Sequence_pair.validate bad))

let overlap_exists rects =
  let n = Array.length rects in
  let found = ref false in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Rect.overlaps rects.(i) rects.(j) then found := true
    done
  done;
  !found

let prop_pack_never_overlaps =
  QCheck2.Test.make ~count:100 ~name:"sequence-pair packing never overlaps"
    QCheck2.Gen.(pair (int_range 2 12) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let sp = Sequence_pair.random rng n in
      let dims = Array.init n (fun _ -> (0.5 +. Rng.float rng 3.0, 0.5 +. Rng.float rng 3.0)) in
      let packing = Sequence_pair.pack sp ~dims in
      not (overlap_exists packing.Sequence_pair.rects))

let prop_moves_preserve_validity =
  QCheck2.Test.make ~count:100 ~name:"annealing moves keep valid sequence pairs"
    QCheck2.Gen.(pair (int_range 2 10) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let sp = Sequence_pair.random rng n in
      let i = Rng.int rng n and j = Rng.int rng n in
      Sequence_pair.validate (Sequence_pair.swap_pos sp i j) = Ok ()
      && Sequence_pair.validate (Sequence_pair.swap_both sp i j) = Ok ())

let sample_blocks () =
  [|
    Block.soft ~name:"a" 4.0;
    Block.soft ~name:"b" 6.0;
    Block.hard ~name:"c" ~width:2.0 ~height:2.0;
    Block.soft ~name:"d" 3.0;
  |]

let sample_nets = [ { Annealer.pins = [| 0; 1 |]; weight = 2.0 }; { Annealer.pins = [| 1; 2; 3 |]; weight = 1.0 } ]

let test_annealer_improves () =
  let blocks = sample_blocks () in
  let rng = Rng.create 7 in
  (* Compare the annealed cost against the cost of a random packing. *)
  let random_cost =
    let sp = Sequence_pair.random (Rng.create 99) 4 in
    let dims = Array.map (fun b -> List.hd (Block.shapes b ~n_choices:1)) blocks in
    let packing = Sequence_pair.pack sp ~dims in
    Annealer.cost_of Annealer.default_options blocks sample_nets packing
  in
  let result = Annealer.floorplan rng blocks sample_nets in
  check "annealed at most random" true (result.Annealer.cost <= random_cost +. 1e-9);
  check "no overlap" false (overlap_exists result.Annealer.packing.Sequence_pair.rects)

let test_annealer_deterministic () =
  let blocks = sample_blocks () in
  let a = Annealer.floorplan (Rng.create 5) blocks sample_nets in
  let b = Annealer.floorplan (Rng.create 5) blocks sample_nets in
  check_float "same cost" a.Annealer.cost b.Annealer.cost

let test_floorplan_whitespace_and_dead_area () =
  let blocks = sample_blocks () in
  let result = Annealer.floorplan (Rng.create 5) blocks sample_nets in
  let fp = Floorplan.of_packing ~whitespace:0.2 blocks result.Annealer.packing in
  let chip_area = Rect.area fp.Floorplan.chip in
  let block_area = Array.fold_left (fun acc b -> acc +. Block.area b) 0.0 blocks in
  check "chip bigger than blocks" true (chip_area > block_area);
  let dead = Floorplan.dead_area fp in
  check "dead area positive" true (dead > 0.0);
  check_float "dead + covered = chip" chip_area (dead +. (chip_area -. dead));
  check "utilization in (0,1)" true (Floorplan.utilization fp > 0.0 && Floorplan.utilization fp < 1.0)

let test_block_at () =
  let blocks = sample_blocks () in
  let result = Annealer.floorplan (Rng.create 5) blocks sample_nets in
  let fp = Floorplan.of_packing blocks result.Annealer.packing in
  Array.iteri
    (fun i p ->
      let c = Lacr_oracle.Geometry.center p.Floorplan.rect in
      match Floorplan.block_at fp c with
      | Some j -> check "center maps to own block" true (i = j)
      | None -> Alcotest.fail "center not found")
    fp.Floorplan.placements;
  (* A corner of the chip should be whitespace. *)
  check "chip corner empty" true (Floorplan.block_at fp (Point.make 0.001 0.001) = None)

let test_expand_soft_blocks () =
  let blocks = sample_blocks () in
  let result = Annealer.floorplan (Rng.create 5) blocks sample_nets in
  let fp = Floorplan.of_packing blocks result.Annealer.packing in
  let grown = Floorplan.expand_soft_blocks fp ~grow:(fun name -> if name = "a" then 0.5 else 0.0) in
  check_float "a grew 50%" 6.0 (Block.area grown.(0));
  check_float "b unchanged" 6.0 (Block.area grown.(1));
  check_float "hard c unchanged" 4.0 (Block.area grown.(2))

let suite =
  [
    Alcotest.test_case "block shapes" `Quick test_block_shapes;
    Alcotest.test_case "identity pack stacks" `Quick test_identity_pack_stacks;
    Alcotest.test_case "reversed pack stacks vertically" `Quick test_reversed_pack_stacks_vertically;
    Alcotest.test_case "sequence pair validate" `Quick test_validate;
    QCheck_alcotest.to_alcotest prop_pack_never_overlaps;
    QCheck_alcotest.to_alcotest prop_moves_preserve_validity;
    Alcotest.test_case "annealer improves" `Quick test_annealer_improves;
    Alcotest.test_case "annealer deterministic" `Quick test_annealer_deterministic;
    Alcotest.test_case "whitespace and dead area" `Quick test_floorplan_whitespace_and_dead_area;
    Alcotest.test_case "block_at" `Quick test_block_at;
    Alcotest.test_case "expand soft blocks" `Quick test_expand_soft_blocks;
  ]

(* The annealer on two Table 1 circuits, pinned by a digest of the
   sequence pair and block outlines a default build picks. *)
let test_annealer_pinned () =
  List.iter
    (fun (name, expected) ->
      match Lacr_circuits.Suite.by_name name with
      | None -> Alcotest.failf "%s missing" name
      | Some netlist -> (
        match Lacr_core.Build.build netlist with
        | Error msg -> Alcotest.fail msg
        | Ok inst ->
          let layout = (inst.Lacr_core.Build.sequence, inst.Lacr_core.Build.dims) in
          let marshalled = Marshal.to_string layout [ Marshal.No_sharing ] in
          Alcotest.(check string)
            (name ^ " sequence pair and dims") expected
            (Digest.to_hex (Digest.string marshalled))))
    [ ("s526", "59a0abe133076df5b393f7e53ff95eb0"); ("s1423", "c24a2b2a4da33e2e7e2524370c4bb8cc") ]

(* The annealer's inline cost against the point-list formula it
   replaced: the same float, bit for bit, on random packings and nets
   (empty, single-pin and repeated-pin nets included). *)
let prop_cost_of_matches_point_list =
  QCheck2.Test.make ~count:300 ~name:"annealer cost_of equals the point-list formula bit for bit"
    QCheck2.Gen.(pair (int_range 1 12) (int_range 0 1_000_000))
    (fun (n, seed) ->
      let rng = Rng.create seed in
      let sp = Sequence_pair.random rng n in
      let dims = Array.init n (fun _ -> (0.1 +. Rng.float rng 5.0, 0.1 +. Rng.float rng 5.0)) in
      let packing = Sequence_pair.pack sp ~dims in
      let blocks = Array.init n (fun b -> Block.soft ~name:(string_of_int b) 1.0) in
      let nets =
        List.init (Rng.int rng 8) (fun _ ->
            {
              Annealer.pins = Array.init (Rng.int rng 6) (fun _ -> Rng.int rng n);
              weight = Rng.float rng 3.0;
            })
      in
      let options =
        {
          Annealer.default_options with
          area_weight = Rng.float rng 2.0;
          wirelength_weight = Rng.float rng 2.0;
        }
      in
      Int64.equal
        (Int64.bits_of_float (Annealer.cost_of options blocks nets packing))
        (Int64.bits_of_float (Lacr_oracle.Geometry.annealer_cost options nets packing)))

let suite =
  suite
  @ [
      Alcotest.test_case "annealer pinned on s526 and s1423" `Quick test_annealer_pinned;
      QCheck_alcotest.to_alcotest prop_cost_of_matches_point_list;
    ]
