(* Request handling for lacrd: circuit resolution, the warm/cold plan
   paths over the cache, per-request observability contexts, and the
   mutex-guarded service-lifetime metric aggregate.

   Determinism contract: the "result" subtree of a plan response is a
   pure function of (circuit, configuration, second_iteration) — warm
   and cold paths produce byte-identical renderings, which the load
   generator asserts against fresh single-shot plans.  Everything
   run-specific (latency, cache disposition, solver counters) lives
   outside that subtree. *)

module Jsonx = Lacr_obs.Jsonx
module Obs = Lacr_obs.Trace
module Planner = Lacr_core.Planner
module Lac = Lacr_core.Lac
module Config = Lacr_core.Config

type t = {
  config : Config.t;
  second_iteration : bool;
  cache : Cache.t;
  clock : unit -> float;
  agg : Mutex.t;  (* guards the two aggregate lists below *)
  mutable counters : (string * int) list;  (* name-sorted *)
  mutable histograms : (string * int array * int array) list;  (* name-sorted *)
}

let create ?(config = Config.default) ?(second_iteration = true) () =
  {
    config;
    second_iteration;
    cache = Cache.create ();
    clock = Obs.clock_of Obs.disabled;
    agg = Mutex.create ();
    counters = [];
    histograms = [];
  }

let cache_counts t = Cache.counts t.cache

(* --- aggregate merges (inputs and state both name-sorted) --- *)

let rec merge_counters a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
    let c = String.compare ka kb in
    if c = 0 then (ka, va + vb) :: merge_counters ta tb
    else if c < 0 then (ka, va) :: merge_counters ta b
    else (kb, vb) :: merge_counters a tb

let rec merge_histograms a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | ((ka, bounds_a, ca) as ha) :: ta, ((kb, _, cb) as hb) :: tb ->
    let c = String.compare ka kb in
    if c = 0 then
      (ka, bounds_a, Array.init (Array.length ca) (fun i -> ca.(i) + cb.(i)))
      :: merge_histograms ta tb
    else if c < 0 then ha :: merge_histograms ta (hb :: tb)
    else hb :: merge_histograms (ha :: ta) tb

(* Request latency buckets, microseconds. *)
let latency_bounds = [| 1_000; 10_000; 100_000; 1_000_000; 10_000_000 |]

let latency_histogram meth us =
  let nb = Array.length latency_bounds in
  let rec find i = if i >= nb then nb else if us <= latency_bounds.(i) then i else find (i + 1) in
  let counts = Array.make (nb + 1) 0 in
  counts.(find 0) <- 1;
  ("serve.latency_us." ^ meth, Array.copy latency_bounds, counts)

let absorb t ~counters ~histograms =
  Mutex.lock t.agg;
  t.counters <- merge_counters t.counters counters;
  t.histograms <- merge_histograms t.histograms histograms;
  Mutex.unlock t.agg

(* Counters and histograms collected by one request's private
   observability context, in the exact shape the aggregate merges —
   the "metrics" echo of a plan response reuses this, so summing the
   echoes over all requests reproduces the aggregate. *)
let request_totals trace =
  (Obs.counter_totals trace, Obs.histogram_totals trace)

let finish_request t ~meth ~trace ~elapsed_us =
  let counters, histograms = request_totals trace in
  let counters = merge_counters counters [ ("serve.requests." ^ meth, 1) ] in
  let histograms = merge_histograms histograms [ latency_histogram meth elapsed_us ] in
  absorb t ~counters ~histograms;
  (counters, histograms)

(* --- JSON renderings --- *)

(* 30-bit labelling digest.  Jsonx numbers are floats, so a full
   64-bit hash would lose low bits in transit; 30 bits round-trip
   exactly and still pin the labelling for bit-identity checks. *)
let labels_hash labels =
  let h = ref 0x811c9 in
  Array.iter (fun v -> h := (((!h * 131) + v + 0x9e3779) land 0x3FFFFFFF)) labels;
  !h

let outcome_json (o : Lac.outcome) =
  Jsonx.Obj
    [
      ("n_foa", Jsonx.of_int o.Lac.n_foa);
      ("n_f", Jsonx.of_int o.Lac.n_f);
      ("n_fn", Jsonx.of_int o.Lac.n_fn);
      ("n_wr", Jsonx.of_int o.Lac.n_wr);
      ( "rounds",
        Jsonx.Arr
          (List.map
             (fun (n_foa, ff_area) -> Jsonx.Arr [ Jsonx.of_int n_foa; Jsonx.Num ff_area ])
             o.Lac.trace) );
      ("labels_hash", Jsonx.of_int (labels_hash o.Lac.labels));
    ]

(* The deterministic subtree of a plan response: no timings, no solver
   counters, no cache disposition.  Byte-equal for warm and cold paths
   and for the single-shot [Planner.plan_checked] of the same inputs. *)
let result_body (run : Planner.run) =
  Jsonx.Obj
    [
      ("t_init", Jsonx.Num run.Planner.t_init);
      ("t_min", Jsonx.Num run.Planner.t_min);
      ("t_clk", Jsonx.Num run.Planner.t_clk);
      ("minarea", outcome_json run.Planner.minarea);
      ("lac", outcome_json run.Planner.lac);
      ( "second",
        match run.Planner.second with
        | None -> Jsonx.Null
        | Some (Error msg) -> Jsonx.Obj [ ("error", Jsonx.Str msg) ]
        | Some (Ok s) ->
          Jsonx.Obj
            [
              ( "lac2",
                match s.Planner.lac2 with
                | Error msg -> Jsonx.Obj [ ("error", Jsonx.Str msg) ]
                | Ok o -> outcome_json o );
            ] );
    ]

let reference_result ?config ?second_iteration name =
  match Lacr_circuits.Suite.resolve name with
  | Error msg -> Error msg
  | Ok netlist -> (
    match Planner.plan_checked ?config ?second_iteration netlist with
    | Error err -> Error (Planner.error_message err)
    | Ok run -> Ok (result_body run))

(* --- methods --- *)

(* Cap of the [stall_ms] load-drill hook.  A worker parked in
   [Unix.sleepf] also holds up shutdown, which joins the workers, so
   a client must not be able to park one for longer. *)
let max_stall_ms = 10_000

let handle_plan t ~id params =
  let stall_ms =
    match (Jsonx.member "stall_ms" params, Protocol.param_int params "stall_ms") with
    | None, _ -> Some 0
    | Some _, Some ms when ms >= 0 && ms <= max_stall_ms -> Some ms
    | Some _, _ -> None
  in
  match (Protocol.param_str params "circuit", stall_ms) with
  | None, _ ->
    Protocol.error_response ~id:(Some id) ~code:Protocol.code_bad_request
      ~message:"plan: missing string param \"circuit\""
  | Some _, None ->
    Protocol.error_response ~id:(Some id) ~code:Protocol.code_bad_request
      ~message:
        (Printf.sprintf "plan: param \"stall_ms\" must be an integer in 0..%d" max_stall_ms)
  | Some name, Some stall_ms -> (
    match Lacr_circuits.Suite.resolve name with
    | Error msg ->
      Protocol.error_response ~id:(Some id) ~code:Protocol.code_unknown_circuit ~message:msg
    | Ok netlist ->
      let second_iteration =
        match Protocol.param_bool params "second_iteration" with
        | Some b -> b
        | None -> t.second_iteration
      in
      (* Deterministic load-drill hook: hold a worker for a fixed time
         before solving, so tests can fill the queue on purpose. *)
      if stall_ms > 0 then Unix.sleepf (float_of_int stall_ms /. 1000.0);
      let t0 = t.clock () in
      let trace = Obs.create () in
      let solved =
        match Cache.checkout t.cache name with
        | Some entry -> (
          match
            Planner.plan_prepared ~second_iteration ~session:entry.Cache.solver ~trace
              entry.Cache.prepared
          with
          | Ok run -> Ok (run, entry, `Hit)
          | Error err -> Error err)
        | None -> (
          match Planner.prepare ~config:t.config ~trace netlist with
          | Error err -> Error err
          | Ok prepared -> (
            match Planner.compile_solver prepared with
            | Error msg -> Error (Planner.Failed msg)
            | Ok solver -> (
              match
                Planner.plan_prepared ~second_iteration ~session:solver ~trace prepared
              with
              | Ok run -> Ok (run, { Cache.prepared; solver }, `Miss)
              | Error err -> Error err)))
      in
      let elapsed_us = int_of_float ((t.clock () -. t0) *. 1e6) in
      let req_counters, req_histograms = finish_request t ~meth:"plan" ~trace ~elapsed_us in
      let metrics_echo =
        match Protocol.param_bool params "metrics" with
        | Some true ->
          [ ("metrics", Jsonx.Obj (Lacr_obs.Export.totals_fields req_counters req_histograms)) ]
        | Some false | None -> []
      in
      (match solved with
      | Error err ->
        (* A failed solve may leave the solver's internal state
           mid-flight, so the entry is dropped rather than published:
           the next request recomputes from scratch. *)
        Protocol.error_response ~id:(Some id) ~code:(Planner.error_code err)
          ~message:(Planner.error_message err)
      | Ok (run, entry, disposition) ->
        Cache.publish t.cache name entry;
        Protocol.ok_response ~id
          (Jsonx.Obj
             ([
                ("circuit", Jsonx.Str name);
                ( "cache",
                  Jsonx.Str (match disposition with `Hit -> "hit" | `Miss -> "miss") );
                ("elapsed_us", Jsonx.of_int elapsed_us);
                ("result", result_body run);
              ]
             @ metrics_echo))))

let handle_stats t ~id params =
  match Protocol.param_str params "circuit" with
  | None ->
    Protocol.error_response ~id:(Some id) ~code:Protocol.code_bad_request
      ~message:"stats: missing string param \"circuit\""
  | Some name -> (
    match Lacr_circuits.Suite.resolve name with
    | Error msg ->
      Protocol.error_response ~id:(Some id) ~code:Protocol.code_unknown_circuit ~message:msg
    | Ok netlist ->
      let t0 = t.clock () in
      let module Netlist = Lacr_netlist.Netlist in
      let stats =
        match Lacr_netlist.Seqview.of_netlist netlist with
        | Error msg -> Error msg
        | Ok view -> Lacr_netlist.Levelize.stats view
      in
      let elapsed_us = int_of_float ((t.clock () -. t0) *. 1e6) in
      let _ = finish_request t ~meth:"stats" ~trace:Obs.disabled ~elapsed_us in
      (match stats with
      | Error msg ->
        Protocol.error_response ~id:(Some id) ~code:Protocol.code_stats_failed ~message:msg
      | Ok s ->
        let module L = Lacr_netlist.Levelize in
        Protocol.ok_response ~id
          (Jsonx.Obj
             [
               ("circuit", Jsonx.Str name);
               ("inputs", Jsonx.of_int (Netlist.num_inputs netlist));
               ("outputs", Jsonx.of_int (Netlist.num_outputs netlist));
               ("dffs", Jsonx.of_int (Netlist.num_dffs netlist));
               ("gates", Jsonx.of_int (Netlist.num_gates netlist));
               ("units", Jsonx.of_int s.L.units);
               ("edges", Jsonx.of_int s.L.edges);
               ("registers", Jsonx.of_int s.L.registers);
               ("combinational_depth", Jsonx.of_int s.L.combinational_depth);
               ("avg_fanin", Jsonx.Num s.L.avg_fanin);
               ("max_fanin", Jsonx.of_int s.L.max_fanin);
               ("max_fanout", Jsonx.of_int s.L.max_fanout);
               ("sequential_edges", Jsonx.of_int s.L.sequential_edges);
             ])))

(* The service-lifetime metrics dump, in the exact Export schema
   ([{schema, counters, histograms, spans}]) so
   [Export.validate_metrics_string] and [lacr trace-check] accept it
   unchanged.  [extra] carries the server's own counters (connections,
   rejections, queue peak); cache hit/miss counters are always present,
   so the document validates even on a fresh daemon. *)
let metrics_body t ~extra =
  let hits, misses = Cache.counts t.cache in
  Mutex.lock t.agg;
  let counters = t.counters and histograms = t.histograms in
  Mutex.unlock t.agg;
  (* Per-fingerprint footprint of the warm cache: each resident
     prepared pipeline holds its flat constraint system, so the edge /
     period split and the arena payload are readable without touching
     the (exclusively owned) solver state. *)
  let cache_counters =
    List.concat_map
      (fun (fp, entry) ->
        let cs = entry.Cache.prepared.Lacr_core.Planner.p_constraints in
        let module C = Lacr_retime.Constraints in
        [
          (Printf.sprintf "serve.cache.%s.constraints.edge" fp, cs.C.n_edge);
          (Printf.sprintf "serve.cache.%s.constraints.period" fp, cs.C.n_period);
          (Printf.sprintf "serve.cache.%s.constraints.arena_bytes" fp, C.system_bytes cs.C.system);
        ])
      (Cache.snapshot t.cache)
  in
  let serve_counters =
    List.sort
      (fun (a, _) (b, _) -> String.compare a b)
      (("serve.cache_hits", hits) :: ("serve.cache_misses", misses) :: cache_counters @ extra)
  in
  Jsonx.Obj
    ((("schema", Jsonx.of_int 1)
     :: Lacr_obs.Export.totals_fields (merge_counters counters serve_counters) histograms)
    @ [ ("spans", Jsonx.Arr []) ])

let metrics_response t ~id ~extra = Protocol.ok_response ~id (metrics_body t ~extra)

(* Queue-side dispatch: the methods heavy enough to ride the worker
   queue.  health/metrics/shutdown are answered inline by the server
   and never reach this function.  The catch-all is the wire-level
   backstop for the "no request can kill the daemon" invariant: any
   exception a handler lets slip becomes a stable Protocol error
   instead of unwinding into the worker loop. *)
let handle t (req : Protocol.request) =
  try
    match req.meth with
    | "plan" -> handle_plan t ~id:req.id req.params
    | "stats" -> handle_stats t ~id:req.id req.params
    | meth ->
      Protocol.error_response ~id:(Some req.id) ~code:Protocol.code_unknown_method
        ~message:
          (Printf.sprintf "unknown method %s (expected plan|stats|metrics|health|shutdown)"
             meth)
  with exn ->
    Protocol.error_response ~id:(Some req.id) ~code:Protocol.code_plan_failed
      ~message:("internal error: " ^ Printexc.to_string exn)
