(* Serving-daemon tests, against a real in-process server on a
   temp-dir Unix socket: a seeded soak (mixed requests over concurrent
   connections, byte-identity of warm and cold results against fresh
   single-shot plans, metrics aggregate = sum of per-request echoes),
   a deterministic queue-full backpressure drill (stall_ms holds the
   single worker, health bypasses the queue, the overflow request is
   rejected with `overloaded`), the hand-off of a second job to a
   second idle worker, the structured error paths, and the cap on
   stall_ms. *)

module Jsonx = Lacr_obs.Jsonx
module Protocol = Lacr_serve.Protocol
module Service = Lacr_serve.Service
module Server = Lacr_serve.Server
module Loadgen = Lacr_serve.Loadgen

let clock = Lacr_obs.Trace.clock_of Lacr_obs.Trace.disabled

let with_server ?(workers = 2) ?(queue_depth = 4)
    ?(max_line = Server.default_options.Server.max_line) f =
  let path = Filename.temp_file "lacrd_test" ".sock" in
  Sys.remove path;
  let service = Service.create () in
  let server =
    Server.start
      ~options:{ Server.endpoint = Protocol.Unix_path path; workers; queue_depth; max_line }
      service
  in
  let runner = Domain.spawn (fun () -> Server.run server) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      Domain.join runner;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path service)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close conn = try Unix.close conn.fd with Unix.Unix_error _ -> ()

let send conn ~id meth params =
  Protocol.write_message conn.oc (Protocol.request_json { Protocol.id; meth; params })

let recv conn =
  match Protocol.read_message conn.ic with
  | Ok doc -> doc
  | Error msg -> Alcotest.failf "read_message: %s" msg

let call conn ~id meth params =
  send conn ~id meth params;
  recv conn

let body_int body key =
  match Option.bind (Jsonx.member key body) Jsonx.to_float with
  | Some f -> int_of_float f
  | None -> Alcotest.failf "response body misses integer %s" key

let expect_ok doc =
  match Protocol.ok_of doc with
  | Some body -> body
  | None -> Alcotest.failf "expected ok response, got %s" (Jsonx.to_string doc)

let expect_error ~code doc =
  match Protocol.error_of doc with
  | Some (c, _) when String.equal c code -> ()
  | Some (c, msg) -> Alcotest.failf "expected error %s, got %s (%s)" code c msg
  | None -> Alcotest.failf "expected error %s, got ok: %s" code (Jsonx.to_string doc)

(* --- the soak: seeded mix, concurrent connections, full verify --- *)

let test_soak () =
  with_server ~workers:2 ~queue_depth:16 @@ fun path service ->
  let options =
    {
      Loadgen.endpoint = Protocol.Unix_path path;
      connections = 3;
      requests = 200;
      seed = 20030310;
      mix = [ "s27"; "s27"; "s27"; "s27"; "s298" ];
      verify = true;
      second_iteration = true;
      wait_s = 5.0;
      shutdown_after = false;
    }
  in
  match Loadgen.run options with
  | Error msg -> Alcotest.failf "loadgen: %s" msg
  | Ok summary ->
    Alcotest.(check int) "all requests answered ok" 200 summary.Loadgen.ok;
    Alcotest.(check (list (pair string int))) "no failures" [] summary.Loadgen.failed;
    Alcotest.(check int) "zero result mismatches" 0 summary.Loadgen.result_mismatches;
    Alcotest.(check int) "metrics aggregate equals echo sums" 0
      summary.Loadgen.metrics_mismatches;
    Alcotest.(check int) "both circuits verified against single-shot plans" 2
      summary.Loadgen.verified_circuits;
    Alcotest.(check bool) "every repeated fingerprint hit the warm path" true
      (summary.Loadgen.cache_hits >= 190);
    Alcotest.(check bool) "each circuit missed at least once" true
      (summary.Loadgen.cache_misses >= 2);
    let hits, misses = Service.cache_counts service in
    Alcotest.(check int) "service hit counter" summary.Loadgen.cache_hits hits;
    Alcotest.(check int) "service miss counter" summary.Loadgen.cache_misses misses;
    Alcotest.(check bool) "summary passes" true (Loadgen.passed summary)

(* --- deterministic backpressure drill --- *)

let poll_health conn ~until ~what =
  let deadline = clock () +. 10.0 in
  let rec go id =
    let body = expect_ok (call conn ~id "health" (Jsonx.Obj [])) in
    if until body then body
    else if clock () > deadline then Alcotest.failf "health never reached: %s" what
    else begin
      Unix.sleepf 0.02;
      go (id + 1)
    end
  in
  go 1000

let stall_plan ~stall_ms =
  Jsonx.Obj
    [
      ("circuit", Jsonx.Str "s27");
      ("stall_ms", Jsonx.Num stall_ms);
      ("second_iteration", Jsonx.Bool false);
    ]

let test_backpressure () =
  with_server ~workers:1 ~queue_depth:2 @@ fun path _service ->
  let probe = connect path in
  (* Warm the cache so the stalled requests solve in milliseconds. *)
  let warmup =
    expect_ok
      (call probe ~id:1 "plan"
         (Jsonx.Obj
            [ ("circuit", Jsonx.Str "s27"); ("second_iteration", Jsonx.Bool false) ]))
  in
  (match Option.bind (Jsonx.member "cache" warmup) Jsonx.to_str with
  | Some "miss" -> ()
  | other -> Alcotest.failf "warm-up should miss, got %s" (Option.value other ~default:"?"));
  (* Hold the only worker... *)
  let holder = connect path in
  send holder ~id:2 "plan" (stall_plan ~stall_ms:1500.);
  let _ =
    poll_health probe ~what:"worker holding the stalled request"
      ~until:(fun b -> body_int b "in_flight" = 1)
  in
  (* ...fill the queue from two more connections... *)
  let filler_a = connect path in
  let filler_b = connect path in
  send filler_a ~id:3 "plan" (stall_plan ~stall_ms:50.);
  send filler_b ~id:4 "plan" (stall_plan ~stall_ms:50.);
  let _ =
    poll_health probe ~what:"queue holding both fillers"
      ~until:(fun b -> body_int b "queued" = 2)
  in
  (* ...and the next request must bounce immediately, while health
     (which bypasses the queue) keeps answering. *)
  let overflow = connect path in
  let t0 = clock () in
  expect_error ~code:Protocol.code_overloaded
    (call overflow ~id:5 "plan" (stall_plan ~stall_ms:0.));
  Alcotest.(check bool) "rejection was immediate, not queued" true (clock () -. t0 < 1.0);
  let health =
    poll_health probe ~what:"rejection counted" ~until:(fun b -> body_int b "rejected" >= 1)
  in
  Alcotest.(check int) "queue depth reported" 2 (body_int health "queue_depth");
  (* Everyone queued before the overflow still gets a good answer. *)
  List.iter
    (fun conn ->
      let body = expect_ok (recv conn) in
      match Option.bind (Jsonx.member "cache" body) Jsonx.to_str with
      | Some "hit" -> ()
      | _ -> Alcotest.fail "stalled request should have hit the warm cache")
    [ holder; filler_a; filler_b ];
  List.iter close [ probe; holder; filler_a; filler_b; overflow ]

(* --- idle-worker handoff --- *)

(* A job wakes the lowest-numbered idle worker and marks it busy at
   once, so a second job that arrives while the first is held wakes
   the next worker instead of queueing behind the first. *)
let test_handoff () =
  with_server ~workers:2 ~queue_depth:2 @@ fun path _service ->
  let probe = connect path in
  let _ =
    expect_ok
      (call probe ~id:1 "plan"
         (Jsonx.Obj [ ("circuit", Jsonx.Str "s27"); ("second_iteration", Jsonx.Bool false) ]))
  in
  let first = connect path in
  let second = connect path in
  send first ~id:2 "plan" (stall_plan ~stall_ms:1500.);
  let _ =
    poll_health probe ~what:"first job on a worker" ~until:(fun b -> body_int b "in_flight" = 1)
  in
  send second ~id:3 "plan" (stall_plan ~stall_ms:1500.);
  let both =
    poll_health probe ~what:"second job on the other worker"
      ~until:(fun b -> body_int b "in_flight" = 2)
  in
  Alcotest.(check int) "nothing waits in the queue" 0 (body_int both "queued");
  List.iter (fun conn -> ignore (expect_ok (recv conn))) [ first; second ];
  (* Both workers went back to waiting: a third job is still served. *)
  let _ = expect_ok (call second ~id:4 "plan" (stall_plan ~stall_ms:0.)) in
  List.iter close [ probe; first; second ]

(* --- structured errors on the wire --- *)

let test_errors () =
  with_server @@ fun path _service ->
  let conn = connect path in
  expect_error ~code:Protocol.code_unknown_circuit
    (call conn ~id:1 "plan" (Jsonx.Obj [ ("circuit", Jsonx.Str "s9999") ]));
  expect_error ~code:Protocol.code_bad_request (call conn ~id:2 "plan" (Jsonx.Obj []));
  expect_error ~code:Protocol.code_unknown_method (call conn ~id:3 "frobnicate" (Jsonx.Obj []));
  expect_error ~code:Protocol.code_unknown_circuit
    (call conn ~id:4 "stats" (Jsonx.Obj [ ("circuit", Jsonx.Str "hier:1") ]));
  (* An unparseable line answers with id: null instead of dropping the
     connection. *)
  output_string conn.oc "this is not json\n";
  flush conn.oc;
  let doc = recv conn in
  expect_error ~code:Protocol.code_bad_request doc;
  Alcotest.(check bool) "bad request has null id" true (Protocol.response_id doc = None);
  (* An id past the int range is not an id. *)
  output_string conn.oc "{\"id\":1e30,\"method\":\"health\"}\n";
  flush conn.oc;
  let doc = recv conn in
  expect_error ~code:Protocol.code_bad_request doc;
  Alcotest.(check bool) "out-of-range id answers with null id" true
    (Protocol.response_id doc = None);
  (* The connection is still usable afterwards. *)
  let stats = expect_ok (call conn ~id:5 "stats" (Jsonx.Obj [ ("circuit", Jsonx.Str "s27") ])) in
  Alcotest.(check int) "s27 units" 15 (body_int stats "units");
  Alcotest.(check int) "s27 registers" 3 (body_int stats "registers");
  let metrics = expect_ok (call conn ~id:6 "metrics" (Jsonx.Obj [])) in
  (match Lacr_obs.Export.validate_metrics_string ~csv:false (Jsonx.to_string metrics) with
  | Ok n -> Alcotest.(check bool) "metrics validate with counters" true (n > 0)
  | Error msg -> Alcotest.failf "metrics do not validate: %s" msg);
  close conn

(* --- oversized request lines are rejected, not buffered --- *)

let test_line_limit () =
  with_server ~max_line:256 @@ fun path _service ->
  let conn = connect path in
  (* Far over the limit and never '\n'-terminated until the end: the
     server must answer bad_request without buffering the payload. *)
  output_string conn.oc (String.make 4096 'x');
  output_char conn.oc '\n';
  flush conn.oc;
  let doc = recv conn in
  expect_error ~code:Protocol.code_bad_request doc;
  Alcotest.(check bool) "oversize rejection has null id" true
    (Protocol.response_id doc = None);
  (* The stream stayed aligned: the next request on the same
     connection works. *)
  let stats = expect_ok (call conn ~id:1 "stats" (Jsonx.Obj [ ("circuit", Jsonx.Str "s27") ])) in
  Alcotest.(check int) "s27 units after oversize line" 15 (body_int stats "units");
  (* A line of exactly max_line bytes still goes through whole. *)
  let base = "{\"id\":2,\"method\":\"health\",\"params\":{}}" in
  let line = base ^ String.make (256 - String.length base) ' ' in
  output_string conn.oc line;
  output_char conn.oc '\n';
  flush conn.oc;
  ignore (expect_ok (recv conn));
  close conn

(* --- shutdown over the wire terminates run cleanly --- *)

let test_shutdown () =
  let path = Filename.temp_file "lacrd_test" ".sock" in
  Sys.remove path;
  let service = Service.create () in
  let server =
    Server.start
      ~options:
        {
          Server.endpoint = Protocol.Unix_path path;
          workers = 1;
          queue_depth = 2;
          max_line = Server.default_options.Server.max_line;
        }
      service
  in
  let runner = Domain.spawn (fun () -> Server.run server) in
  let conn = connect path in
  let body = expect_ok (call conn ~id:1 "shutdown" (Jsonx.Obj [])) in
  (match Jsonx.member "stopping" body with
  | Some (Jsonx.Bool true) -> ()
  | _ -> Alcotest.fail "shutdown should acknowledge stopping");
  close conn;
  Domain.join runner;
  Alcotest.(check bool) "socket file removed on shutdown" false (Sys.file_exists path)

(* --- the stall_ms drill hook takes an integer in 0..10 000 --- *)

let test_stall_cap () =
  with_server ~workers:1 @@ fun path _service ->
  let conn = connect path in
  let t0 = clock () in
  (* 1e30 is integral but past the int range, where [int_of_float]
     gives an arbitrary int. *)
  List.iteri
    (fun i stall_ms ->
      expect_error ~code:Protocol.code_bad_request
        (call conn ~id:(i + 1) "plan" (stall_plan ~stall_ms)))
    [ 10_001.; 1e30; -1.; 1.5 ];
  Alcotest.(check bool) "rejected before the worker sleeps" true (clock () -. t0 < 5.0);
  close conn

(* --- JSON numbers become ints only inside the int range --- *)

let test_int_of_number () =
  let two_62 = -.Float.of_int min_int in
  let check what expected f =
    Alcotest.(check (option int)) what expected (Protocol.int_of_number f)
  in
  check "-2^62 is min_int" (Some min_int) (Float.of_int min_int);
  check "largest float below 2^62" (Some (max_int - 511)) (Float.pred two_62);
  check "0" (Some 0) 0.0;
  check "-0.0" (Some 0) (-0.0);
  check "2^62 is past max_int" None two_62;
  check "1e30" None 1e30;
  check "-1e30" None (-1e30);
  check "1.5" None 1.5;
  check "nan" None Float.nan;
  check "infinity" None Float.infinity

let suite =
  [
    Alcotest.test_case "wire errors and stats/metrics" `Quick test_errors;
    Alcotest.test_case "oversized lines bounce with bad_request" `Quick test_line_limit;
    Alcotest.test_case "queue-full backpressure drill" `Quick test_backpressure;
    Alcotest.test_case "shutdown drains and exits" `Quick test_shutdown;
    Alcotest.test_case "soak: 200 mixed requests, verified" `Slow test_soak;
    Alcotest.test_case "stall_ms above the cap bounces with bad_request" `Quick test_stall_cap;
    Alcotest.test_case "int_of_number range edges" `Quick test_int_of_number;
    Alcotest.test_case "a second job wakes the second worker" `Quick test_handoff;
  ]
