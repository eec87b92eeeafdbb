(* Observability subsystem tests: span nesting and ordering under an
   injected deterministic clock, histogram bucket edges, pool-size
   independence of the counter/histogram aggregates, Chrome-trace and
   metrics export validity, and the planner-level guarantees (tracing
   changes no output; --domains 1 and 4 agree bit-for-bit). *)

module Trace = Lacr_obs.Trace
module Export = Lacr_obs.Export
module Jsonx = Lacr_obs.Jsonx
module Pool = Lacr_util.Pool
module Planner = Lacr_core.Planner
module Lac = Lacr_core.Lac
module Config = Lacr_core.Config
module Suite = Lacr_circuits.Suite

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* A counter clock: each call advances exactly one "second", so span
   timestamps and durations are fully deterministic. *)
let clocked () =
  let t = ref 0.0 in
  Trace.create
    ~clock:(fun () ->
      t := !t +. 1.0;
      !t)
    ()

let test_disabled_is_noop () =
  let ctx = Trace.disabled in
  check "disabled" false (Trace.enabled ctx);
  let c = Trace.counter ctx "x" in
  Trace.incr c;
  Trace.add c 41;
  let h = Trace.histogram ctx ~buckets:[| 1; 2 |] "h" in
  Trace.observe h 7;
  let r = Trace.with_span ctx "s" (fun () -> 17) in
  check_int "with_span passes result through" 17 r;
  Trace.span_attr ctx "k" (Trace.Int 1);
  check "no counters" true (Trace.counter_totals ctx = []);
  check "no histograms" true (Trace.histogram_totals ctx = []);
  check "no events" true (Trace.events ctx = []);
  check "no summary" true (Trace.span_summary ctx = [])

let test_span_nesting_and_order () =
  let ctx = clocked () in
  check "enabled" true (Trace.enabled ctx);
  Trace.with_span ctx "outer" (fun () ->
      Trace.with_span ctx "inner" (fun () -> ()));
  Trace.with_span ctx "after" (fun () -> ());
  match Trace.events ctx with
  | [ (slot, [ outer; inner; after ]) ] ->
    check_int "planner slot" 0 slot;
    Alcotest.(check string) "outer name" "outer" outer.Trace.ev_name;
    Alcotest.(check string) "inner name" "inner" inner.Trace.ev_name;
    Alcotest.(check string) "after name" "after" after.Trace.ev_name;
    check_int "outer depth" 0 outer.Trace.ev_depth;
    check_int "inner depth" 1 inner.Trace.ev_depth;
    check_int "after depth" 0 after.Trace.ev_depth;
    (* Track is sorted by start time and the child is contained in the
       parent. *)
    check "inner starts after outer" true (inner.Trace.ev_ts > outer.Trace.ev_ts);
    check "inner ends within outer" true
      (inner.Trace.ev_ts +. inner.Trace.ev_dur
      <= outer.Trace.ev_ts +. outer.Trace.ev_dur +. 1e-9);
    check "after starts after outer ends" true
      (after.Trace.ev_ts >= outer.Trace.ev_ts +. outer.Trace.ev_dur);
    check "durations positive" true
      (outer.Trace.ev_dur > 0.0 && inner.Trace.ev_dur > 0.0 && after.Trace.ev_dur > 0.0)
  | tracks ->
    Alcotest.failf "expected one track of three events, got %d tracks" (List.length tracks)

let test_span_summary_aggregates () =
  let ctx = clocked () in
  for _ = 1 to 3 do
    Trace.with_span ctx "stage" (fun () ->
        Trace.with_span ctx "child" (fun () -> ()))
  done;
  Trace.with_span ctx "tail" (fun () -> ());
  (match Trace.span_summary ~max_depth:1 ctx with
  | [ (0, "stage", 3, stage_s); (1, "child", 3, child_s); (0, "tail", 1, _) ] ->
    check "stage time covers children" true (stage_s >= child_s)
  | rows -> Alcotest.failf "unexpected summary shape (%d rows)" (List.length rows));
  (* Depth filter: max_depth 0 hides the child level. *)
  check_int "top-level only" 2 (List.length (Trace.span_summary ~max_depth:0 ctx))

let test_span_attrs () =
  let ctx = clocked () in
  Trace.with_span ctx ~cat:"test" ~attrs:[ ("static", Trace.Int 1) ] "s" (fun () ->
      Trace.span_attr ctx "dynamic" (Trace.Str "late"));
  match Trace.events ctx with
  | [ (_, [ ev ]) ] ->
    Alcotest.(check string) "category" "test" ev.Trace.ev_cat;
    check "static attr" true (List.mem_assoc "static" ev.Trace.ev_attrs);
    check "dynamic attr" true (List.mem_assoc "dynamic" ev.Trace.ev_attrs)
  | _ -> Alcotest.fail "expected a single span"

let test_histogram_bucket_edges () =
  let ctx = clocked () in
  (* Bounds given unsorted; sorted internally to [1; 4; 8].  Bounds are
     inclusive upper limits, with an implicit overflow bucket. *)
  let h = Trace.histogram ctx ~buckets:[| 4; 1; 8 |] "edges" in
  List.iter (Trace.observe h) [ 0; 1; 2; 4; 5; 8; 9; 100 ];
  match Trace.histogram_totals ctx with
  | [ ("edges", bounds, counts) ] ->
    check "bounds sorted" true (bounds = [| 1; 4; 8 |]);
    check "counts" true (counts = [| 2; 2; 2; 2 |])
  | _ -> Alcotest.fail "expected one histogram"

let test_counter_totals_sorted () =
  let ctx = clocked () in
  Trace.add (Trace.counter ctx "zeta") 5;
  Trace.incr (Trace.counter ctx "alpha");
  Trace.add (Trace.counter ctx "zeta") 2;
  check "name-sorted merged totals" true
    (Trace.counter_totals ctx = [ ("alpha", 1); ("zeta", 7) ])

(* The determinism contract: integer aggregates are bit-identical for
   every pool size, because each work unit records exactly once and
   per-slot cells merge in slot order. *)
let aggregate_under ~size ~n ~value =
  let ctx = Trace.create () in
  let c = Trace.counter ctx "work.items" in
  let h = Trace.histogram ctx ~buckets:[| 4; 16; 64 |] "work.values" in
  Pool.with_pool ~size (fun pool ->
      Pool.parallel_for_chunks pool n (fun lo hi ->
          for i = lo to hi - 1 do
            Trace.incr c;
            Trace.observe h (value i)
          done));
  (Trace.counter_totals ctx, Trace.histogram_totals ctx)

let prop_pool_size_independent =
  QCheck2.Test.make ~count:25 ~name:"aggregates identical under pool sizes 1/2/4"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let n = 64 + (seed mod 191) in
      let value i = (i * ((seed mod 97) + 3)) mod 129 in
      let base = aggregate_under ~size:1 ~n ~value in
      let two = aggregate_under ~size:2 ~n ~value in
      let four = aggregate_under ~size:4 ~n ~value in
      base = two && base = four)

let test_chrome_export_valid () =
  let ctx = clocked () in
  Trace.with_span ctx "outer" (fun () ->
      Trace.with_span ctx ~attrs:[ ("k", Trace.Int 7) ] "inner" (fun () -> ()));
  let doc = Export.chrome_trace ctx in
  let s = Jsonx.to_string ~indent:true doc in
  (match Export.validate_trace_string ~expect:[ "outer"; "inner" ] s with
  | Ok n -> check_int "span events" 2 n
  | Error msg -> Alcotest.failf "invalid trace: %s" msg);
  (* The document also carries thread_name metadata for the track. *)
  match Jsonx.parse s with
  | Error msg -> Alcotest.failf "reparse: %s" msg
  | Ok doc -> (
    match Option.bind (Jsonx.member "traceEvents" doc) Jsonx.to_list with
    | None -> Alcotest.fail "no traceEvents"
    | Some events ->
      let has_meta =
        List.exists
          (fun ev ->
            match Option.bind (Jsonx.member "ph" ev) Jsonx.to_str with
            | Some "M" -> true
            | _ -> false)
          events
      in
      check "thread_name metadata present" true has_meta)

let test_trace_validator_rejects_garbage () =
  (match Export.validate_trace_string "not json" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  (match Export.validate_trace_string "{\"traceEvents\": 3}" with
  | Ok _ -> Alcotest.fail "accepted non-array traceEvents"
  | Error _ -> ());
  let ctx = clocked () in
  Trace.with_span ctx "only" (fun () -> ());
  match Export.validate_trace_string ~expect:[ "missing-span" ] (Jsonx.to_string (Export.chrome_trace ctx)) with
  | Ok _ -> Alcotest.fail "accepted trace missing an expected span"
  | Error _ -> ()

let test_metrics_exports_valid () =
  let ctx = clocked () in
  Trace.with_span ctx "stage" (fun () -> Trace.add (Trace.counter ctx "c.a") 3);
  Trace.incr (Trace.counter ctx "c.b");
  Trace.observe (Trace.histogram ctx ~buckets:[| 1; 2 |] "h") 2;
  (match Export.validate_metrics_string ~csv:false (Jsonx.to_string (Export.metrics_json ctx)) with
  | Ok n -> check_int "json counters" 2 n
  | Error msg -> Alcotest.failf "metrics json: %s" msg);
  match Export.validate_metrics_string ~csv:true (Export.metrics_csv ctx) with
  | Ok n -> check_int "csv counters" 2 n
  | Error msg -> Alcotest.failf "metrics csv: %s" msg

(* Planner-level guarantee: enabling tracing changes no field of the
   run.  (The pinned s27/s386 tests guard the same property against
   the seed; this one compares on/off directly.) *)
let test_tracing_changes_no_output () =
  let plan trace =
    match Planner.plan_checked ?trace ~second_iteration:false (Suite.s27 ()) with
    | Ok run -> run
    | Error e -> Alcotest.failf "plan: %s" (Planner.error_message e)
  in
  let plain = plan None in
  let ctx = Trace.create () in
  let traced = plan (Some ctx) in
  check "labels identical" true
    (plain.Planner.lac.Lac.labels = traced.Planner.lac.Lac.labels);
  check_int "n_foa" plain.Planner.lac.Lac.n_foa traced.Planner.lac.Lac.n_foa;
  check_int "n_f" plain.Planner.lac.Lac.n_f traced.Planner.lac.Lac.n_f;
  check_int "n_fn" plain.Planner.lac.Lac.n_fn traced.Planner.lac.Lac.n_fn;
  check_int "n_wr" plain.Planner.lac.Lac.n_wr traced.Planner.lac.Lac.n_wr;
  check_int "minarea n_foa" plain.Planner.minarea.Lac.n_foa traced.Planner.minarea.Lac.n_foa;
  check "t_clk identical" true (plain.Planner.t_clk = traced.Planner.t_clk);
  (* And the traced run actually recorded the pipeline. *)
  check "root span present" true
    (List.exists (fun (_, name, _, _) -> name = "plan") (Trace.span_summary ctx));
  check "lac rounds counted" true (List.mem_assoc "lac.rounds" (Trace.counter_totals ctx))

(* The acceptance criterion: metric aggregates from a full planning
   run are bit-identical for --domains 1 and --domains 4. *)
let test_domains_1_vs_4_metrics_identical () =
  let run domains =
    let ctx = Trace.create () in
    let config = { Config.default with Config.domains } in
    match Planner.plan_checked ~config ~second_iteration:false ~trace:ctx (Suite.s27 ()) with
    | Ok _ -> (Trace.counter_totals ctx, Trace.histogram_totals ctx)
    | Error e -> Alcotest.failf "plan (domains=%d): %s" domains (Planner.error_message e)
  in
  let c1, h1 = run 1 and c4, h4 = run 4 in
  check "counters non-empty" true (c1 <> []);
  check "counters identical" true (c1 = c4);
  check "histograms identical" true (h1 = h4)

(* Tracing off (the default) costs the hot kernels no allocation.
   Passing [~trace:Trace.disabled] explicitly boxes one [Some] at the
   call site, so the (W,D) kernel may read up to 16 words above its
   default call (after a warm-up call); and 10 000 calls of each
   recording entry point on the disabled context add none. *)
let test_disabled_allocates_nothing () =
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let g =
    match Lacr_netlist.Seqview.of_netlist (Option.get (Suite.by_name "s526")) with
    | Ok view -> Lacr_retime.Graph.of_seqview view
    | Error msg -> Alcotest.failf "s526: %s" msg
  in
  let compute ?trace () = ignore (Lacr_retime.Paths.compute ?trace g) in
  compute ();
  let base = words (fun () -> compute ()) in
  let off = words (fun () -> compute ~trace:Trace.disabled ()) in
  check (Printf.sprintf "(W,D) trace-off %.0f words vs default %.0f" off base) true
    (off -. base <= 16.0);
  let ctx = Trace.disabled in
  let buckets = [| 1; 2 |] and attr = Trace.Int 1 in
  let calls f = words (fun () -> for _ = 1 to 10_000 do f () done) in
  let zero name w = check (Printf.sprintf "%s: %.0f words" name w) true (w = 0.0) in
  zero "with_span" (calls (fun () -> Trace.with_span ctx "s" ignore));
  zero "counter, add, incr"
    (calls (fun () ->
         let c = Trace.counter ctx "c" in
         Trace.add c 3;
         Trace.incr c));
  zero "histogram, observe"
    (calls (fun () -> Trace.observe (Trace.histogram ctx ~buckets "h") 7));
  zero "span_attr" (calls (fun () -> Trace.span_attr ctx "k" attr))

let suite =
  [
    Alcotest.test_case "disabled context is a no-op" `Quick test_disabled_is_noop;
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting_and_order;
    Alcotest.test_case "span summary aggregates" `Quick test_span_summary_aggregates;
    Alcotest.test_case "span attributes" `Quick test_span_attrs;
    Alcotest.test_case "histogram bucket edges" `Quick test_histogram_bucket_edges;
    Alcotest.test_case "counter totals sorted" `Quick test_counter_totals_sorted;
    QCheck_alcotest.to_alcotest prop_pool_size_independent;
    Alcotest.test_case "chrome export valid" `Quick test_chrome_export_valid;
    Alcotest.test_case "trace validator rejects garbage" `Quick test_trace_validator_rejects_garbage;
    Alcotest.test_case "metrics exports valid" `Quick test_metrics_exports_valid;
    Alcotest.test_case "tracing changes no planner output" `Slow test_tracing_changes_no_output;
    Alcotest.test_case "domains 1 vs 4 metrics identical" `Slow test_domains_1_vs_4_metrics_identical;
    Alcotest.test_case "disabled context allocates nothing" `Quick test_disabled_allocates_nothing;
  ]
