(* Benchmark-suite tests: the embedded s27 parses to its published
   statistics; the synthetic generator is deterministic, hits the
   requested statistics, and always produces well-formed sequential
   circuits (QCheck over random specs). *)

module Suite = Lacr_circuits.Suite
module Synth = Lacr_circuits.Synth
module Netlist = Lacr_netlist.Netlist
module Seqview = Lacr_netlist.Seqview
module Rng = Lacr_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_s27_statistics () =
  let n = Suite.s27 () in
  check_int "inputs" 4 (Netlist.num_inputs n);
  check_int "outputs" 1 (Netlist.num_outputs n);
  check_int "dffs" 3 (Netlist.num_dffs n);
  check_int "gates" 10 (Netlist.num_gates n);
  match Netlist.validate n with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "s27 invalid: %s" msg

let test_s27_seqview () =
  match Seqview.of_netlist (Suite.s27 ()) with
  | Error msg -> Alcotest.failf "s27 seqview: %s" msg
  | Ok v ->
    check "no combinational cycle" false (Seqview.has_combinational_cycle v);
    (* 4 PIs + 10 gates + 1 PO port *)
    check_int "units" 15 (Seqview.num_units v)

let test_suite_names () =
  check_int "ten table-1 circuits" 10 (List.length Suite.table1_names);
  check "s1269 present" true (List.mem "s1269" Suite.table1_names);
  check "unknown name" true (Suite.by_name "s9999" = None)

let test_suite_matches_published_stats () =
  List.iter
    (fun name ->
      match (Suite.by_name name, Suite.spec_of name) with
      | Some n, Some spec ->
        check_int (name ^ " inputs") spec.Synth.n_inputs (Netlist.num_inputs n);
        check_int (name ^ " dffs") spec.Synth.n_dffs (Netlist.num_dffs n);
        check_int (name ^ " gates") spec.Synth.n_gates (Netlist.num_gates n);
        check_int (name ^ " outputs") spec.Synth.n_outputs (Netlist.num_outputs n)
      | _ -> Alcotest.failf "missing suite circuit %s" name)
    Suite.table1_names

let test_generator_deterministic () =
  let spec =
    { Synth.name = "det"; n_inputs = 4; n_outputs = 3; n_dffs = 5; n_gates = 40; levels = 5; seed = 77 }
  in
  let a = Synth.generate spec and b = Synth.generate spec in
  check "same spec, same netlist" true (Netlist.equal a b)

let test_generator_seed_sensitivity () =
  let spec =
    { Synth.name = "det"; n_inputs = 4; n_outputs = 3; n_dffs = 5; n_gates = 40; levels = 5; seed = 77 }
  in
  let b = Synth.generate { spec with Synth.seed = 78 } in
  check "different seed, different netlist" false (Netlist.equal (Synth.generate spec) b)

let prop_generated_circuits_well_formed =
  QCheck2.Test.make ~count:40 ~name:"generated circuits validate and have no comb cycle"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let spec = Synth.random_spec rng ~name:"prop" in
      let n = Synth.generate spec in
      match (Netlist.validate n, Seqview.of_netlist n) with
      | Ok (), Ok v -> not (Seqview.has_combinational_cycle v)
      | Error _, _ | _, Error _ -> false)

let prop_generated_counts_match_spec =
  QCheck2.Test.make ~count:40 ~name:"generated circuits match their spec counts"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let spec = Synth.random_spec rng ~name:"prop" in
      let n = Synth.generate spec in
      Netlist.num_inputs n = spec.Synth.n_inputs
      && Netlist.num_dffs n = spec.Synth.n_dffs
      && Netlist.num_gates n = spec.Synth.n_gates
      && Netlist.num_outputs n = min spec.Synth.n_outputs spec.Synth.n_gates)

(* The memo behind Suite.by_name/resolve is hit concurrently by the
   serving daemon's worker domains; hammer it from 4 domains over a
   mixed name set (cache misses on first touch, hits after) and check
   every domain saw the physically identical netlist per name — a
   race would either crash the Hashtbl or hand out duplicate
   generator runs. *)
let test_suite_memo_concurrent () =
  let names = [| "s27"; "s298"; "s386"; "hier:300" |] in
  let rounds = 25 in
  let per_domain = Array.length names * rounds in
  let results = Array.make (4 * per_domain) None in
  let worker d () =
    for i = 0 to per_domain - 1 do
      let name = names.(i mod Array.length names) in
      match Lacr_circuits.Suite.resolve name with
      | Ok netlist -> results.((d * per_domain) + i) <- Some (name, netlist)
      | Error msg -> Alcotest.failf "resolve %s failed under concurrency: %s" name msg
    done
  in
  let domains = List.init 3 (fun d -> Domain.spawn (worker (d + 1))) in
  worker 0 ();
  List.iter Domain.join domains;
  Array.iter
    (fun name ->
      let witness = ref None in
      Array.iter
        (function
          | Some (n, netlist) when String.equal n name ->
            (match !witness with
            | None -> witness := Some netlist
            | Some w ->
              Alcotest.(check bool)
                (name ^ " physically identical across domains")
                true (w == netlist))
          | Some _ | None -> ())
        results)
    names

let suite =
  [
    Alcotest.test_case "s27 statistics" `Quick test_s27_statistics;
    Alcotest.test_case "suite memo concurrent domains" `Quick test_suite_memo_concurrent;
    Alcotest.test_case "s27 seqview" `Quick test_s27_seqview;
    Alcotest.test_case "suite names" `Quick test_suite_names;
    Alcotest.test_case "suite matches published stats" `Quick test_suite_matches_published_stats;
    Alcotest.test_case "generator deterministic" `Quick test_generator_deterministic;
    Alcotest.test_case "generator seed sensitivity" `Quick test_generator_seed_sensitivity;
    QCheck_alcotest.to_alcotest prop_generated_circuits_well_formed;
    QCheck_alcotest.to_alcotest prop_generated_counts_match_spec;
  ]

(* The ten Table 1 netlists, pinned by a digest of the marshalled
   value: a change to the generator's random draws, or to the order
   of the signal pool they index, shows here before it moves a plan. *)
let table1_digests =
  [
    ("s298", "31274c026edae32e905d37ae11cc7178");
    ("s386", "f7895cf146a62be117352c15d8bd5db6");
    ("s400", "57dc3016b80f83565f89e82721005ee3");
    ("s526", "ac51c5dc0b5d6be64ae2be3d3b9073b9");
    ("s641", "6ea46f4485f3cdeaa9d43b0dfc217d8a");
    ("s820", "7f6dff4f1517e45897fd59a28e0c9ce6");
    ("s953", "bf3261f3dfaec0039a3aeea327f0d5bd");
    ("s1196", "5aaf952fba7400a465913abf8a4b8488");
    ("s1269", "bf9fcd953107ea552322547b1fc3b7fc");
    ("s1423", "e98f6a61ab781e4b61fb53974445af0f");
  ]

let test_table1_netlists_pinned () =
  check "every Table 1 circuit pinned" true
    (List.equal String.equal (List.map fst table1_digests) Suite.table1_names);
  List.iter
    (fun (name, expected) ->
      match Suite.spec_of name with
      | None -> Alcotest.failf "%s: no generator spec" name
      | Some spec ->
        let marshalled = Marshal.to_string (Synth.generate spec) [ Marshal.No_sharing ] in
        Alcotest.(check string)
          (name ^ " netlist digest") expected
          (Digest.to_hex (Digest.string marshalled)))
    table1_digests

let suite =
  suite @ [ Alcotest.test_case "table1 netlists pinned" `Quick test_table1_netlists_pinned ]
