(* The repository benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Runs one workload, prints its traffic facts, noise context and every
   metric by name with its unit, and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end set; with --trace 1 the per-layer set of
   a traced pass.  perfbench/README.md gives the reason for each
   workload. *)

let usage = "main.exe --workload iscas_ladder|serve_warm --seed N --seconds S --trace 0|1"

(* The daemon traffic: two closed-loop callers, each with its own
   circuits so concurrent requests never contend for one cache entry.
   The per-cycle request counts put the median inside s526's latency
   band and the 95th percentile inside s1423's (README). *)
let serve_lanes =
  [
    [ ("s1423", 3); ("s641", 2); ("s386", 3); ("s820", 12); ("s298", 1) ];
    [ ("s953", 1); ("s1269", 1); ("s1196", 3); ("s400", 2); ("s526", 24) ];
  ]

let run ~workload ~seed ~seconds ~traced =
  match workload with
  | "iscas_ladder" -> Ok (Workloads.iscas_ladder ~seed ~seconds ~traced ())
  | "serve_warm" -> Workloads.serve_warm ~lanes:serve_lanes ~seed ~seconds ~traced ()
  | other -> Error ("unknown workload " ^ other)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME iscas_ladder or serve_warm");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  (* An interrupted run unwinds, so the daemon it started is stopped. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> raise Sys.Break)))
    [ Sys.sigint; Sys.sigterm ];
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline usage;
    exit 2
  end;
  Printf.printf "workload %s seed %d seconds %g trace %d\n%!" !workload !seed !seconds !trace;
  match run ~workload:!workload ~seed:!seed ~seconds:!seconds ~traced:(!trace = 1) with
  | Error msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 1
  | Ok r ->
    Report.print r;
    exit 0
