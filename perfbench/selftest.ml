(* Self-test of the benchmark, on tiny inputs:
   - the plan certificate accepts a real plan and rejects corrupted
     labellings and miscounted outcomes;
   - self times of a known span tree add up to its root;
   - every workload, untraced and traced, emits exactly the metrics
     BENCHMARK.json names, each with its unit, and a correct result;
   - the benchmark's sources pass the repository linter with no
     allowlist.

     selftest.exe PATH/TO/BENCHMARK.json *)

module Jsonx = Lacr_obs.Jsonx
module Trace = Lacr_obs.Trace
module Planner = Lacr_core.Planner
module Lac = Lacr_core.Lac
module W = Workloads

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let certificate () =
  match Planner.plan_checked (Lacr_circuits.Suite.s27 ()) with
  | Error err -> check ("plan s27: " ^ Planner.error_message err) false
  | Ok run ->
    check "certificate accepts a real plan" (Certify.run run = Ok ());
    let lac = run.Planner.lac in
    let with_lac o = { run with Planner.lac = o } in
    let rejects name o = check ("certificate rejects " ^ name) (Result.is_error (Certify.run (with_lac o))) in
    (* A uniform shift keeps every edge weight, so only the I/O pins
       notice it. *)
    rejects "shifted labels" { lac with Lac.labels = Array.map (fun r -> r + 1) lac.Lac.labels };
    let pulled = Array.copy lac.Lac.labels in
    pulled.(0) <- pulled.(0) - 1000;
    rejects "an illegal label" { lac with Lac.labels = pulled };
    rejects "a miscounted N_F" { lac with Lac.n_f = lac.Lac.n_f + 1 };
    rejects "a miscounted N_FOA" { lac with Lac.n_foa = lac.Lac.n_foa + 1 }

let selftime () =
  let ev name depth ts dur =
    { Trace.ev_name = name; ev_cat = "t"; ev_ts = ts; ev_dur = dur; ev_depth = depth; ev_attrs = [] }
  in
  let self, _, _, top =
    Selftime.of_events
      [ ev "root" 0 0.0 10.0; ev "a" 1 1.0 3.0; ev "g" 2 2.0 1.0; ev "b" 1 5.0 4.0; ev "a" 1 9.5 0.5 ]
  in
  let get n = Option.value (Selftime.Smap.find_opt n self) ~default:(-1.0) in
  check "self times of a known tree"
    (get "root" = 2.5 && get "a" = 2.5 && get "g" = 1.0 && get "b" = 4.0 && top = 10.0)

let declared path section =
  let doc =
    match Jsonx.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok doc -> doc
    | Error msg -> failwith (path ^ ": " ^ msg)
  in
  let entries = Option.value (Option.bind (Jsonx.member section doc) Jsonx.to_list) ~default:[] in
  List.filter_map
    (fun e ->
      match (Option.bind (Jsonx.member "name" e) Jsonx.to_str, Option.bind (Jsonx.member "unit" e) Jsonx.to_str) with
      | Some n, Some u -> Some (n, u)
      | _ -> None)
    entries

let emits ~benchmark label ~traced (r : W.measured) =
  let want = List.sort compare (declared benchmark (if traced then "per_layer" else "end_to_end")) in
  match Jsonx.parse (Report.result_line r) with
  | Error msg -> check (label ^ ": result line parses (" ^ msg ^ ")") false
  | Ok doc ->
    let keys = match doc with Jsonx.Obj kv -> List.map fst kv | _ -> [] in
    check (label ^ ": result keys") (keys = [ "correct"; "attempted"; "failed"; "metrics" ]);
    check (label ^ ": correct") (Jsonx.member "correct" doc = Some (Jsonx.Bool true));
    let got =
      match Jsonx.member "metrics" doc with
      | Some (Jsonx.Obj kv) ->
        List.sort compare
          (List.filter_map
             (fun (n, v) -> Option.map (fun u -> (n, u)) (Option.bind (Jsonx.member "unit" v) Jsonx.to_str))
             kv)
      | _ -> []
    in
    check (label ^ ": every declared metric with its unit") (got = want && want <> [])

let workloads ~benchmark =
  List.iter
    (fun traced ->
      let tag = if traced then "traced" else "untraced" in
      emits ~benchmark ("iscas_ladder " ^ tag) ~traced
        (W.iscas_ladder ~circuits:[ "s27"; "s298" ] ~seed:3 ~seconds:0.0 ~traced ());
      match W.serve_warm ~lanes:[ [ ("s27", 3) ]; [ ("s298", 1) ] ] ~seed:3 ~seconds:0.2 ~traced () with
      | Ok r -> emits ~benchmark ("serve_warm " ^ tag) ~traced r
      | Error msg -> check ("serve_warm " ^ tag ^ ": " ^ msg) false)
    [ false; true ]

(* The repository linter scans only its own roots, so the sources are
   linted from a scratch tree that holds them under bench/. *)
let lint () =
  let root = "lintroot" in
  let dir = Filename.concat root "bench" in
  List.iter (fun d -> try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()) [ root; dir ];
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".ml" then
        Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
            output_string oc (In_channel.with_open_bin f In_channel.input_all)))
    (Sys.readdir ".");
  let exe = Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/lacr_lint.exe" in
  let pid = Unix.create_process exe [| exe; "--root"; root |] Unix.stdin Unix.stdout Unix.stderr in
  check "sources lint-clean with no allowlist" (snd (Unix.waitpid [] pid) = Unix.WEXITED 0)

let () =
  let benchmark = if Array.length Sys.argv > 1 then Sys.argv.(1) else "../BENCHMARK.json" in
  certificate ();
  selftime ();
  workloads ~benchmark;
  lint ();
  if !failures > 0 then begin
    Printf.printf "%d self-test checks failed\n" !failures;
    exit 1
  end
