(* Tests for the utility library: RNG determinism and distribution
   sanity, heap ordering, union-find, statistics, table rendering. *)

module Rng = Lacr_util.Rng
module Union_find = Lacr_util.Union_find
module Stats = Lacr_util.Stats
module Table = Lacr_util.Table

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

let test_rng_deterministic () =
  let a = Rng.create 99 and b = Rng.create 99 in
  for _i = 1 to 100 do
    check_int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_bounds () =
  let rng = Rng.create 5 in
  for _i = 1 to 1000 do
    let v = Rng.int rng 7 in
    check "in range" true (v >= 0 && v < 7);
    let w = Rng.int_in rng (-3) 3 in
    check "int_in range" true (w >= -3 && w <= 3);
    let f = Rng.float rng 2.5 in
    check "float range" true (f >= 0.0 && f < 2.5)
  done

let test_rng_split_independent () =
  let rng = Rng.create 17 in
  let child = Rng.split rng in
  (* Streams should differ (equality of 20 consecutive draws would be
     astronomically unlikely). *)
  let same = ref true in
  for _i = 1 to 20 do
    if Rng.int rng 1_000_000 <> Rng.int child 1_000_000 then same := false
  done;
  check "split produces distinct stream" false !same

let test_rng_shuffle_permutes () =
  let rng = Rng.create 23 in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check "still a permutation" true (sorted = Array.init 50 (fun i -> i))

let test_rng_gaussian_moments () =
  let rng = Rng.create 31 in
  let n = 20_000 in
  let samples = List.init n (fun _ -> Rng.gaussian rng ~mean:5.0 ~stddev:2.0) in
  let mean = Stats.mean samples in
  let sd = Stats.stddev samples in
  check "mean close" true (abs_float (mean -. 5.0) < 0.1);
  check "stddev close" true (abs_float (sd -. 2.0) < 0.1)

let test_union_find () =
  let uf = Union_find.create 10 in
  check_int "initial sets" 10 (Union_find.count uf);
  check "union distinct" true (Union_find.union uf 0 1);
  check "union again false" false (Union_find.union uf 0 1);
  check "transitive" true (Union_find.union uf 1 2);
  check "same after unions" true (Union_find.same uf 0 2);
  check_int "sets after 2 merges" 8 (Union_find.count uf)

let test_stats () =
  check_float "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  check_float "mean empty" 0.0 (Stats.mean []);
  check_float "median odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  check_float "median even" 2.5 (Stats.median [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  check_float "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ]);
  check_float "p50 of 1..10" 5.0 (Stats.percentile 0.5 (List.init 10 (fun i -> float_of_int (i + 1))));
  check_float "geomean" 2.0 (Stats.geometric_mean [ 1.0; 2.0; 4.0 ]);
  check "stddev of constant" true (Stats.stddev [ 4.0; 4.0; 4.0 ] < 1e-9)

let test_table_render () =
  let t = Table.create [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let rendered = Table.render t in
  let lines = String.split_on_char '\n' rendered |> List.filter (( <> ) "") in
  check_int "header + rule + 2 rows" 4 (List.length lines);
  check "right aligned" true
    (match lines with
    | _ :: _ :: row1 :: _ ->
      (* "alpha |     1" : value column right-padded to width 5 *)
      String.length row1 > 0 && String.get row1 (String.length row1 - 1) = '1'
    | _ -> false)

let test_table_arity_check () =
  let t = Table.create [ ("a", Table.Left) ] in
  match Table.add_row t [ "x"; "y" ] with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng shuffle permutes" `Quick test_rng_shuffle_permutes;
    Alcotest.test_case "rng gaussian moments" `Quick test_rng_gaussian_moments;
    Alcotest.test_case "union-find" `Quick test_union_find;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table arity check" `Quick test_table_arity_check;
  ]

(* --- CSV --- *)

module Csv = Lacr_util.Csv

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Csv.escape_cell "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape_cell "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape_cell "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape_cell "a\nb")

let test_csv_document () =
  let doc = Csv.to_string ~header:[ "x"; "y" ] [ [ "1"; "2" ]; [ "3"; "a,b" ] ] in
  Alcotest.(check string) "document" "x,y\n1,2\n3,\"a,b\"\n" doc;
  match Csv.to_string ~header:[ "x" ] [ [ "1"; "2" ] ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch accepted"

let suite =
  suite
  @ [
      Alcotest.test_case "csv escaping" `Quick test_csv_escaping;
      Alcotest.test_case "csv document" `Quick test_csv_document;
    ]

(* --- Int_heap (monomorphic, allocation-free pop path) --- *)

module Int_heap = Lacr_util.Int_heap

let test_int_heap_sorts () =
  let rng = Rng.create 11 in
  let heap = Int_heap.create ~capacity:4 () in
  let values = List.init 500 (fun _ -> Rng.int rng 10_000) in
  List.iter (fun v -> Int_heap.push heap ~prio:v v) values;
  check_int "size" 500 (Int_heap.size heap);
  let last = ref min_int and drained = ref 0 in
  while not (Int_heap.is_empty heap) do
    let p = Int_heap.min_prio heap in
    let v = Int_heap.pop_min heap in
    check_int "priority equals value" p v;
    check "non-decreasing" true (p >= !last);
    last := p;
    incr drained
  done;
  check_int "drained all" 500 !drained;
  (match Int_heap.pop_min heap with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pop on empty accepted");
  Int_heap.push heap ~prio:7 42;
  Int_heap.clear heap;
  check "clear empties" true (Int_heap.is_empty heap)

let test_int_heap_duplicates () =
  (* Lazy-deletion Dijkstra pushes duplicate priorities; ordering must
     hold with ties. *)
  let heap = Int_heap.create () in
  List.iter (fun (p, v) -> Int_heap.push heap ~prio:p v) [ (3, 0); (1, 1); (3, 2); (1, 3); (2, 4) ];
  let order =
    List.init 5 (fun _ ->
        let p = Int_heap.min_prio heap in
        let _v = Int_heap.pop_min heap in
        p)
  in
  check "priorities sorted" true (order = [ 1; 1; 2; 3; 3 ])

(* --- Pool (domain pool) --- *)

module Pool = Lacr_util.Pool

let test_pool_parallel_for_covers () =
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          check_int "pool size" size (Pool.size pool);
          let n = 1000 in
          let hits = Array.make n 0 in
          (* Each index owns its slot: exactly-once coverage shows up
             as all-ones regardless of scheduling. *)
          Pool.parallel_for ~chunk:7 pool n (fun i -> hits.(i) <- hits.(i) + 1);
          check "every index exactly once" true (Array.for_all (( = ) 1) hits)))
    [ 1; 2; 4 ]

let test_pool_parallel_for_chunks_ranges () =
  Pool.with_pool ~size:3 (fun pool ->
      let n = 101 in
      let hits = Array.make n 0 in
      (* Alcotest's state is not domain-safe: the bodies only count
         out-of-bounds ranges, and the checks run on the calling
         domain after the join. *)
      let bad_ranges = Atomic.make 0 in
      Pool.parallel_for_chunks ~chunk:10 pool n (fun lo hi ->
          if not (0 <= lo && lo < hi && hi <= n && hi - lo <= 10) then Atomic.incr bad_ranges;
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      check_int "range bounds" 0 (Atomic.get bad_ranges);
      check "chunked coverage" true (Array.for_all (( = ) 1) hits))

let test_pool_parallel_sum () =
  let n = 12345 in
  let expected = n * (n - 1) / 2 in
  List.iter
    (fun size ->
      Pool.with_pool ~size (fun pool ->
          check_int "sum of 0..n-1" expected (Pool.parallel_sum ~chunk:100 pool n (fun i -> i));
          check_int "empty sum" 0 (Pool.parallel_sum pool 0 (fun _ -> 1))))
    [ 1; 4 ]

let test_pool_exception_propagates () =
  Pool.with_pool ~size:2 (fun pool ->
      match Pool.parallel_for ~chunk:1 pool 100 (fun i -> if i = 37 then failwith "boom") with
      | exception Failure msg -> Alcotest.(check string) "exn carried" "boom" msg
      | () -> Alcotest.fail "exception swallowed");
  (* The pool survives a failed job and runs the next one. *)
  Pool.with_pool ~size:2 (fun pool ->
      (try Pool.parallel_for pool 10 (fun _ -> failwith "first") with Failure _ -> ());
      check_int "pool reusable after failure" 45 (Pool.parallel_sum pool 10 (fun i -> i)))

let test_pool_sequential_reuse () =
  (* The shared sequential pool spawns nothing and is always usable. *)
  check_int "sequential size" 1 (Pool.size Pool.sequential);
  check_int "sequential sum" 10 (Pool.parallel_sum Pool.sequential 5 (fun i -> i));
  (* Many successive jobs on one pool: the parked-worker handshake must
     not lose or double-run any generation. *)
  Pool.with_pool ~size:4 (fun pool ->
      for round = 1 to 50 do
        let total = Pool.parallel_sum ~chunk:3 pool 100 (fun i -> i * round) in
        check_int "round total" (4950 * round) total
      done)

let test_pool_resolve_size () =
  (match Pool.env_domains () with
  | None -> check_int "explicit request" 3 (Pool.resolve_size ~requested:3)
  | Some n ->
    (* LACR_DOMAINS set in this environment: it must win. *)
    check_int "env override wins" n (Pool.resolve_size ~requested:3));
  check "auto at least 1" true (Pool.resolve_size ~requested:0 >= 1)

let suite =
  suite
  @ [
      Alcotest.test_case "int heap sorts" `Quick test_int_heap_sorts;
      Alcotest.test_case "int heap duplicates" `Quick test_int_heap_duplicates;
      Alcotest.test_case "pool parallel_for covers" `Quick test_pool_parallel_for_covers;
      Alcotest.test_case "pool chunk ranges" `Quick test_pool_parallel_for_chunks_ranges;
      Alcotest.test_case "pool parallel_sum" `Quick test_pool_parallel_sum;
      Alcotest.test_case "pool exception propagates" `Quick test_pool_exception_propagates;
      Alcotest.test_case "pool sequential + reuse" `Quick test_pool_sequential_reuse;
      Alcotest.test_case "pool resolve_size" `Quick test_pool_resolve_size;
    ]
