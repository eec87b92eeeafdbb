(* The benchmark's workloads.  Each runs through the planner's and the
   daemon's public entry points, checks every plan and response, and
   returns its metrics: the end-to-end set on an untraced run, the
   per-layer set (from a separate traced pass over the same work) on a
   traced one. *)

module Trace = Lacr_obs.Trace
module Jsonx = Lacr_obs.Jsonx
module Planner = Lacr_core.Planner
module Config = Lacr_core.Config
module Lac = Lacr_core.Lac
module Suite = Lacr_circuits.Suite
module Service = Lacr_serve.Service
module Protocol = Lacr_serve.Protocol
module Stats = Lacr_util.Stats
module Rng = Lacr_util.Rng

type metric = { name : string; value : float; unit_ : string }

type measured = {
  attempted : int;
  failures : string list;  (** one line per failed operation *)
  metrics : metric list;
  lines : string list;  (** traffic facts, sample counts, noise context *)
}

(* The end-to-end metrics, in output order, with their units. *)
let end_to_end_units =
  [
    ("setup_s", "s"); ("plan_s", "s"); ("peak_rss_mb", "MB"); ("latency_p50_ms", "ms");
    ("latency_p95_ms", "ms"); ("throughput_rps", "1/s");
  ]

(* The per-layer metrics of a traced run, in output order.  A metric
   whose layer a workload does not exercise reads 0 there. *)
let per_layer_units =
  [
    ("circuits.resolve_s", "s"); ("build.partition_s", "s"); ("build.floorplan_s", "s");
    ("build.tilegraph_s", "s"); ("route.all_s", "s"); ("route.reroutes_per_net", "ratio");
    ("build.repeaters_s", "s"); ("paths.compute_s", "s"); ("paths.pairs", "count");
    ("feasibility.min_period_s", "s"); ("constraints.generate_s", "s");
    ("constraints.period", "count"); ("constraints.keep_ratio", "ratio"); ("lac.minarea_s", "s");
    ("lac.retime_s", "s"); ("lac.round_ms", "ms"); ("lac.rounds", "count");
    ("mcmf.solves", "count"); ("mcmf.warm_ratio", "ratio"); ("mcmf.settles", "count");
    ("mcmf.pushes", "count"); ("plan.second_s", "s"); ("plan.n_foa", "count");
    ("serve.service_ms_p50", "ms"); ("serve.overhead_ms_p50", "ms");
    ("serve.cache_hit_ratio", "ratio"); ("serve.rejected", "count"); ("serve.queue_peak", "count");
    ("process.cpu_s", "s"); ("process.minor_gwords", "Gwords"); ("process.major_gwords", "Gwords");
    ("obs.trace_overhead_pct", "%"); ("host.steal_pct", "%"); ("host.load1", "load");
    ("host.nproc", "count");
  ]

let with_units table values =
  List.map
    (fun (name, unit_) ->
      { name; unit_; value = Option.value (List.assoc_opt name values) ~default:0.0 })
    table

let ratio a b = if b > 0.0 then a /. b else 0.0
let ms s = 1000.0 *. s

(* Nearest-rank percentile of a sample, with the number of samples
   above its rank: a percentile is trustworthy with ten or more. *)
let percentile p xs =
  let n = List.length xs in
  let rank = max 1 (min n (int_of_float (ceil (p *. float_of_int n)))) in
  (Stats.percentile p xs, n - rank)

let latency_lines xs =
  let n = List.length xs in
  let _, beyond50 = percentile 0.5 xs and _, beyond95 = percentile 0.95 xs in
  [
    Printf.sprintf "samples latency_p50_ms n=%d beyond=%d" n beyond50;
    Printf.sprintf "samples latency_p95_ms n=%d beyond=%d%s" n beyond95
      (if beyond95 >= 10 then "" else " (fewer than 10 beyond: indicative only)");
  ]

(* Process-wide CPU seconds and allocation of this process. *)
type process_mark = { cpu : float; minor : float; major : float }

let process_mark () =
  let t = Unix.times () in
  let minor, major = Probe.gc_gwords () in
  { cpu = t.Unix.tms_utime +. t.Unix.tms_stime; minor; major }

let process_delta a b =
  [
    ("process.cpu_s", b.cpu -. a.cpu); ("process.minor_gwords", b.minor -. a.minor);
    ("process.major_gwords", b.major -. a.major);
  ]

let noise_values (n : Probe.noise) =
  [ ("host.steal_pct", n.Probe.steal_pct); ("host.load1", n.Probe.load1);
    ("host.nproc", float_of_int n.Probe.nproc) ]

let noise_line (n : Probe.noise) =
  Printf.sprintf "noise nproc=%d load1=%.2f steal_pct=%.3f" n.Probe.nproc n.Probe.load1
    n.Probe.steal_pct

(* Per-layer values read off a traced run: span self times summed by
   name, the routing and LAC subtrees folded into their top span, the
   second iteration inclusive, and the counters lib/ emits. *)
let span_values st counters =
  let c name = float_of_int (Option.value (List.assoc_opt name counters) ~default:0) in
  let self = Selftime.self st and incl = Selftime.inclusive st in
  [
    ("circuits.resolve_s", self "circuits.resolve"); ("build.partition_s", self "build.partition");
    ("build.floorplan_s", self "build.floorplan"); ("build.tilegraph_s", self "build.tilegraph");
    ("route.all_s", incl "route.all"); ("route.reroutes_per_net", ratio (c "route.reroutes") (c "route.nets"));
    ("build.repeaters_s", self "build.repeaters"); ("paths.compute_s", self "paths.compute");
    ("paths.pairs", c "paths.reachable_pairs" +. c "paths.frontier_pairs");
    ("feasibility.min_period_s", self "feasibility.min_period");
    ("constraints.generate_s", self "constraints.generate");
    ("constraints.period", c "constraints.period");
    ("constraints.keep_ratio", ratio (c "constraints.period") (c "constraints.period_candidates"));
    ("lac.minarea_s", self "lac.minarea"); ("lac.retime_s", incl "lac.retime");
    ( "lac.round_ms",
      ms (ratio (incl "lac.round") (float_of_int (Selftime.count st "lac.round"))) );
    ("lac.rounds", c "lac.rounds"); ("mcmf.solves", c "mcmf.solves");
    ("mcmf.warm_ratio", ratio (c "mcmf.warm_starts") (c "mcmf.solves"));
    ("mcmf.settles", c "mcmf.settles"); ("mcmf.pushes", c "mcmf.pushes");
    ("plan.second_s", incl "plan.second");
  ]

let selftime_lines st =
  List.map (fun (name, s) -> Printf.sprintf "selftime %-26s %12.6f s" name s) (Selftime.rows st)
  @ [
      Printf.sprintf "selftime balance: sum=%.6f s top=%.6f s %s (worker-track spans %.6f s)"
        (Selftime.self_total st) st.Selftime.top
        (if Selftime.balanced st then "ok" else "MISMATCH")
        st.Selftime.worker_tracks;
    ]

let counter_delta before after name =
  let get l = Option.value (List.assoc_opt name l) ~default:0 in
  get after - get before

(* ------------------------------------------------------------------ *)
(* iscas_ladder                                                          *)

let ladder_circuits = "s27" :: Suite.table1_names

(* Set-up passes per run; set-up time is their median. *)
let setup_passes = 21

(* Generation bypasses Suite's memo, so every set-up pass does the
   circuits layer's work again. *)
let generate name =
  if String.equal name "s27" then (name, Suite.s27 ())
  else
    match Suite.spec_of name with
    | Some spec -> (name, Lacr_circuits.Synth.generate spec)
    | None -> failwith ("unknown circuit " ^ name)

let backend (r : Planner.run) =
  let n = Lacr_retime.Graph.num_vertices r.Planner.instance.Lacr_core.Build.graph in
  let stream =
    match r.Planner.instance.Lacr_core.Build.config.Config.paths_mode with
    | Lacr_retime.Paths.Mode.Dense -> false
    | Lacr_retime.Paths.Mode.Stream -> true
    | Lacr_retime.Paths.Mode.Auto -> n > Lacr_retime.Paths.auto_cutoff
  in
  (n, if stream then "stream" else "dense")

(* The final-iteration N_FOA: the second iteration's when it produced
   a labelling, the first iteration's otherwise. *)
let final_n_foa (r : Planner.run) =
  match r.Planner.second with
  | Some (Ok { Planner.lac2 = Ok o; _ }) -> o.Lac.n_foa
  | Some (Ok { Planner.lac2 = Error _; _ }) | Some (Error _) | None -> r.Planner.lac.Lac.n_foa

type plan_op = { circuit : string; seconds : float; outcome : (Planner.run, string) result }

let plan_once ?(trace = Trace.disabled) (circuit, netlist) =
  let t0 = Probe.now () in
  let planned = Planner.plan_checked ~trace netlist in
  let seconds = Probe.now () -. t0 in
  let outcome =
    match planned with
    | Error err -> Error (Planner.error_code err ^ ": " ^ Planner.error_message err)
    | Ok run -> (
      match Certify.run run with Ok () -> Ok run | Error msg -> Error ("check: " ^ msg))
  in
  { circuit; seconds; outcome }

let fact_line ?constraints op =
  match op.outcome with
  | Error msg -> Printf.sprintf "fact circuit=%s FAILED %s" op.circuit msg
  | Ok r ->
    let vertices, backend = backend r in
    Printf.sprintf
      "fact circuit=%s vertices=%d backend=%s constraints=%s lac_rounds=%d second_iteration=%s n_foa=%d plan_s=%.6f"
      op.circuit vertices backend
      (match constraints with Some n -> string_of_int n | None -> "untraced")
      r.Planner.lac.Lac.n_wr
      (if r.Planner.second <> None then "yes" else "no")
      (final_n_foa r) op.seconds

let failures_of ops =
  List.filter_map
    (fun op ->
      match op.outcome with Ok _ -> None | Error msg -> Some (op.circuit ^ ": " ^ msg))
    ops

let pass_seconds pass = List.fold_left (fun acc op -> acc +. op.seconds) 0.0 pass

(* Whole passes over the ladder, at least one, while another pass as
   long as the last still ends within [seconds]. *)
let ladder_passes ~seconds netlists =
  let deadline = Probe.now () +. seconds in
  let rec go acc =
    let pass = List.map (fun c -> plan_once c) netlists in
    let acc = pass :: acc in
    if Probe.now () +. pass_seconds pass <= deadline then go acc else List.rev acc
  in
  go []

(* The paper's experiment has no free input: Table 1 order and the
   default configuration.  Seeding the floorplan or the order moves
   cost and peak RSS by more than any regression bound (README), so
   the seed is accepted and recorded but changes nothing here. *)
let iscas_ladder ?(circuits = ladder_circuits) ~seed:_ ~seconds ~traced () =
  let ticks0 = Probe.host_ticks () in
  let setup_times = ref [] and netlists = ref [] in
  for _ = 1 to setup_passes do
    (* From a collected heap every pass does the same allocation and
       collection work; without it the passes alternate between two
       GC phases and the median flips between them. *)
    Gc.full_major ();
    let t0 = Probe.now () in
    netlists := List.map generate circuits;
    setup_times := (Probe.now () -. t0) :: !setup_times
  done;
  let netlists = !netlists in
  let mark0 = process_mark () in
  let passes = ladder_passes ~seconds netlists in
  let mark1 = process_mark () in
  let ops = List.concat passes in
  let plan_s = Stats.median (List.map pass_seconds passes) in
  if not traced then begin
    (* A batch caller waits for the whole ladder: one latency sample per
       pass.  Per-circuit times are in the fact lines. *)
    let lat = List.map (fun pass -> ms (pass_seconds pass)) passes in
    let plan_total = List.fold_left (fun acc op -> acc +. op.seconds) 0.0 ops in
    let noise = Probe.noise_since ticks0 in
    {
      attempted = List.length ops;
      failures = failures_of ops;
      metrics =
        with_units end_to_end_units
          [
            ("setup_s", Stats.median !setup_times); ("plan_s", plan_s);
            ("peak_rss_mb", Probe.peak_rss_mb ());
            ("latency_p50_ms", fst (percentile 0.5 lat));
            ("latency_p95_ms", fst (percentile 0.95 lat));
            ("throughput_rps", ratio (float_of_int (List.length ops)) plan_total);
          ];
      lines =
        List.map (fun op -> fact_line op) (List.hd passes)
        @ [ Printf.sprintf "passes %d" (List.length passes) ]
        @ latency_lines lat @ [ noise_line noise ];
    }
  end
  else begin
    let ctx = Trace.create () in
    let traced_ops =
      Trace.with_span ctx ~cat:"bench" "bench.iscas_ladder" (fun () ->
          let netlists =
            List.map
              (fun name ->
                Trace.with_span ctx ~cat:"bench" ~attrs:[ ("circuit", Trace.Str name) ]
                  "circuits.resolve" (fun () -> generate name))
              circuits
          in
          List.map
            (fun ((name, _) as c) ->
              let before = Trace.counter_totals ctx in
              let op =
                Trace.with_span ctx ~cat:"bench" ~attrs:[ ("circuit", Trace.Str name) ]
                  "bench.plan" (fun () -> plan_once ~trace:ctx c)
              in
              let after = Trace.counter_totals ctx in
              let constraints =
                counter_delta before after "constraints.edge"
                + counter_delta before after "constraints.period"
              in
              (op, constraints))
            netlists)
    in
    let st = Selftime.of_trace ctx in
    let counters = Trace.counter_totals ctx in
    let traced_s = List.fold_left (fun acc (op, _) -> acc +. op.seconds) 0.0 traced_ops in
    let n_foa =
      List.fold_left
        (fun acc (op, _) -> match op.outcome with Ok r -> acc + final_n_foa r | Error _ -> acc)
        0 traced_ops
    in
    let noise = Probe.noise_since ticks0 in
    let all_ops = ops @ List.map fst traced_ops in
    {
      attempted = List.length all_ops;
      failures = failures_of all_ops;
      metrics =
        with_units per_layer_units
          (span_values st counters
          @ [
              ("plan.n_foa", float_of_int n_foa);
              ("obs.trace_overhead_pct", 100.0 *. (ratio traced_s (pass_seconds (List.hd passes)) -. 1.0));
            ]
          @ process_delta mark0 mark1 @ noise_values noise);
      lines =
        List.map (fun (op, constraints) -> fact_line ~constraints op) traced_ops
        @ [ Printf.sprintf "plan_s untraced=%.6f traced=%.6f" plan_s traced_s ]
        @ selftime_lines st @ [ noise_line noise ];
    }
  end

(* ------------------------------------------------------------------ *)
(* serve_warm                                                            *)

(* One connection's share of the traffic: its own circuits, each with
   the number of requests it gets per cycle. *)
type lane = (string * int) list

(* Worker domains of the daemon, planner domains per request, and the
   queue depth: two callers can never fill it. *)
let workers = 2
let planner_domains = 1
let queue_depth = 8

type request = {
  r_circuit : string;
  latency : float;  (** client-observed round trip, seconds *)
  service : float;  (** the daemon's [elapsed_us], seconds *)
  hit : bool;
  r_error : string option;
}

let cycle_of rng (lane : lane) =
  let cycle =
    Array.of_list (List.concat_map (fun (c, k) -> List.init k (fun _ -> c)) lane)
  in
  Rng.shuffle rng cycle;
  Array.to_list cycle

(* One plan request over an open connection, checked against the
   reference rendering of its circuit. *)
let request conn ~id ~references circuit =
  let t0 = Probe.now () in
  let reply = Daemon.call conn ~id ~meth:"plan" (Daemon.plan_params circuit) in
  let latency = Probe.now () -. t0 in
  let base = { r_circuit = circuit; latency; service = 0.0; hit = false; r_error = None } in
  match reply with
  | Error msg -> { base with r_error = Some ("transport: " ^ msg) }
  | Ok doc -> (
    match (Protocol.error_of doc, Protocol.ok_of doc) with
    | Some (code, msg), _ -> { base with r_error = Some (code ^ ": " ^ msg) }
    | None, None -> { base with r_error = Some "response without ok or error" }
    | None, Some ok ->
      let service =
        match Option.bind (Jsonx.member "elapsed_us" ok) Jsonx.to_float with
        | Some us -> us /. 1e6
        | None -> 0.0
      in
      let hit = Option.bind (Jsonx.member "cache" ok) Jsonx.to_str = Some "hit" in
      let base = { base with service; hit } in
      let observed = Option.map Jsonx.to_string (Jsonx.member "result" ok) in
      (match (observed, List.assoc_opt circuit references) with
      | Some got, Some want when String.equal got want -> base
      | Some _, Some _ -> { base with r_error = Some "result differs from the reference plan" }
      | None, _ -> { base with r_error = Some "response without result" }
      | _, None -> { base with r_error = Some "no reference for circuit" }))

(* Closed loop on one connection: whole cycles until the deadline.
   Returns the requests, the connection's busy seconds and its first
   cycle. *)
let drive conn ~rng ~references ~deadline lane =
  let t0 = Probe.now () in
  let rec go id acc cycle =
    let acc, id =
      List.fold_left
        (fun (acc, id) c -> (request conn ~id ~references c :: acc, id + 1))
        (acc, id) cycle
    in
    if Probe.now () < deadline then go id acc (cycle_of rng lane) else List.rev acc
  in
  let first = cycle_of rng lane in
  let reqs = go 1 [] first in
  (reqs, Probe.now () -. t0, first)

(* Run [f] on every element in its own thread and collect results in
   order. *)
let parallel f xs =
  let cells = List.map (fun x -> (x, ref None)) xs in
  let threads = List.map (fun (x, cell) -> Thread.create (fun () -> cell := Some (f x)) ()) cells in
  List.iter Thread.join threads;
  List.map
    (fun (_, cell) -> match !cell with Some v -> v | None -> failwith "worker thread died")
    cells

(* Reference renderings of every circuit, computed in-process outside
   any timed window, one domain per lane.  A rendering depends on the
   build alone, so it is kept in the daemon's run directory under this
   executable's digest, and later runs of the same build read it back
   instead of planning every circuit cold again. *)
let references_of lanes =
  let build = Digest.to_hex (Digest.file Sys.executable_name) in
  let path c = Filename.concat Daemon.run_dir (Printf.sprintf "reference-%s-%s.json" build c) in
  let cached c =
    match In_channel.with_open_bin (path c) In_channel.input_all with
    | exception Sys_error _ -> None
    | text -> if Result.is_ok (Jsonx.parse text) then Some text else None
  in
  (* Written aside and renamed, so a run cut short leaves no partial
     rendering behind. *)
  let store c text =
    Out_channel.with_open_bin (path c ^ ".tmp") (fun oc -> output_string oc text);
    Sys.rename (path c ^ ".tmp") (path c)
  in
  let compute lane =
    List.map
      (fun (c, _) ->
        match cached c with
        | Some text -> (c, text)
        | None -> (
          match Service.reference_result ~second_iteration:false c with
          | Ok doc ->
            let text = Jsonx.to_string doc in
            store c text;
            (c, text)
          | Error msg -> failwith ("reference plan of " ^ c ^ " failed: " ^ msg)))
      lane
  in
  Daemon.make_run_dir ();
  List.concat_map Domain.join (List.map (fun l -> Domain.spawn (fun () -> compute l)) lanes)

let counter_of_metrics doc name =
  match Option.bind (Jsonx.member "counters" doc) (Jsonx.member name) with
  | Some v -> Option.value (Jsonx.to_float v) ~default:0.0
  | None -> 0.0

let request_failures reqs =
  List.filter_map
    (fun r -> Option.map (fun e -> r.r_circuit ^ ": " ^ e) r.r_error)
    reqs

type socket_run = {
  setup_s : float;
  warmup : request list;
  measured : (request list * float) list;  (** per lane: requests, wall seconds *)
  first_cycles : string list list;
  peak_rss : float;
  daemon_cpu_s : float;
  rejected : float;
  queue_peak : float;
}

let socket_phase ~seed ~seconds ~references (lanes : lane list) =
  Daemon.with_daemon ~workers ~domains:planner_domains ~queue_depth @@ fun daemon ->
  let t0 = Probe.now () in
  let conns = List.map (fun _ -> Daemon.connect daemon) lanes in
  match List.find_map (function Error e -> Some e | Ok _ -> None) conns with
  | Some msg -> Error msg
  | None ->
    let conns = List.filter_map Result.to_option conns in
    let pairs = List.combine conns lanes in
    (* One cold plan at a time: two at once make the daemon's peak RSS
       depend on how far they overlap. *)
    let warmup =
      List.concat_map
        (fun (conn, lane) ->
          List.mapi (fun i (c, _) -> request conn ~id:(1_000_000 + i) ~references c) lane)
        pairs
    in
    let setup_s = Probe.now () -. t0 in
    let cpu0 = Probe.cpu_s ~pid:daemon.Daemon.pid () in
    let deadline = Probe.now () +. seconds in
    let driven =
      parallel
        (fun (i, (conn, lane)) ->
          drive conn ~rng:(Rng.create ((seed * 7919) + i)) ~references ~deadline lane)
        (List.mapi (fun i p -> (i, p)) pairs)
    in
    let daemon_cpu_s = Probe.cpu_s ~pid:daemon.Daemon.pid () -. cpu0 in
    let metrics =
      match Daemon.call (List.hd conns) ~id:0 ~meth:"metrics" (Jsonx.Obj []) with
      | Ok doc -> Option.value (Protocol.ok_of doc) ~default:Jsonx.Null
      | Error _ -> Jsonx.Null
    in
    let peak_rss = Probe.peak_rss_mb ~pid:daemon.Daemon.pid () in
    List.iter Daemon.close_conn conns;
    Ok
      {
        setup_s;
        warmup;
        measured = List.map (fun (reqs, wall, _) -> (reqs, wall)) driven;
        first_cycles = List.map (fun (_, _, first) -> first) driven;
        peak_rss;
        daemon_cpu_s;
        rejected = counter_of_metrics metrics "serve.rejected";
        queue_peak = counter_of_metrics metrics "serve.queue_peak";
      }

(* The warm path of the daemon, in-process: one resident prepared
   pipeline and compiled solver per circuit, then the given request
   sequence through [Planner.plan_prepared ~session], which is what the
   service does on a cache hit. *)
let replay ?(trace = Trace.disabled) ~warm ~references sequence =
  List.map
    (fun circuit ->
      let prepared, session = List.assoc circuit warm in
      let run () =
        let t0 = Probe.now () in
        let out = Planner.plan_prepared ~second_iteration:false ~session ~trace prepared in
        (out, Probe.now () -. t0)
      in
      let out, seconds =
        if Trace.enabled trace then
          Trace.with_span trace ~cat:"bench" ~attrs:[ ("circuit", Trace.Str circuit) ]
            "bench.request" run
        else run ()
      in
      let outcome =
        match out with
        | Error err -> Error (Planner.error_message err)
        | Ok r ->
          if String.equal (Jsonx.to_string (Service.result_body r)) (List.assoc circuit references)
          then Ok r
          else Error "replayed result differs from the reference plan"
      in
      { circuit; seconds; outcome })
    sequence

let warm_state lanes =
  let prepare lane =
    List.map
      (fun (c, _) ->
        match Suite.resolve c with
        | Error msg -> failwith msg
        | Ok netlist -> (
          match Planner.prepare netlist with
          | Error err -> failwith (Planner.error_message err)
          | Ok prepared -> (
            match Planner.compile_solver prepared with
            | Error msg -> failwith msg
            | Ok session -> (c, (prepared, session)))))
      lane
  in
  List.concat_map Domain.join (List.map (fun l -> Domain.spawn (fun () -> prepare l)) lanes)

let serve_warm ~lanes ~seed ~seconds ~traced () =
  let ticks0 = Probe.host_ticks () in
  let references = references_of lanes in
  match socket_phase ~seed ~seconds ~references lanes with
  | Error msg -> Error msg
  | Ok s ->
    let measured = List.concat_map fst s.measured in
    let ok = List.filter (fun r -> r.r_error = None) measured in
    let lat = List.map (fun r -> ms r.latency) ok in
    let fact_lines =
      List.map
        (fun (c, _) ->
          let mine = List.filter (fun r -> String.equal r.r_circuit c) ok in
          Printf.sprintf "fact circuit=%s requests=%d hits=%d latency_p50_ms=%.3f service_p50_ms=%.3f"
            c (List.length mine)
            (List.length (List.filter (fun r -> r.hit) mine))
            (Stats.median (List.map (fun r -> ms r.latency) mine))
            (Stats.median (List.map (fun r -> ms r.service) mine)))
        (List.concat lanes)
      @ List.mapi
          (fun i r ->
            Printf.sprintf "fact warmup=%d circuit=%s cache=%s latency_ms=%.3f" i r.r_circuit
              (if r.hit then "hit" else "miss") (ms r.latency))
          s.warmup
      @ [
          Printf.sprintf "fact measured_requests=%d cache_hits=%d cache_misses=%d" (List.length measured)
            (List.length (List.filter (fun r -> r.hit) measured))
            (List.length (List.filter (fun r -> not r.hit) measured));
          Printf.sprintf "daemon peak_rss_mb=%.1f cpu_s=%.3f rejected=%.0f queue_peak=%.0f"
            s.peak_rss s.daemon_cpu_s s.rejected s.queue_peak;
        ]
    in
    let socket_failures = request_failures (s.warmup @ measured) in
    let socket_attempted = List.length s.warmup + List.length measured in
    if not traced then begin
      (* One warm replan of every circuit, as a caller sees it under
         this load: the sum of the per-circuit median latencies. *)
      let plan_s =
        List.fold_left
          (fun acc (c, _) ->
            acc
            +. Stats.median
                 (List.filter_map
                    (fun r -> if String.equal r.r_circuit c then Some r.latency else None)
                    ok))
          0.0 (List.concat lanes)
      in
      let throughput =
        List.fold_left
          (fun acc (reqs, wall) ->
            acc +. ratio (float_of_int (List.length (List.filter (fun r -> r.r_error = None) reqs))) wall)
          0.0 s.measured
      in
      let noise = Probe.noise_since ticks0 in
      Ok
        {
          attempted = socket_attempted;
          failures = socket_failures;
          metrics =
            with_units end_to_end_units
              [
                ("setup_s", s.setup_s); ("plan_s", plan_s); ("peak_rss_mb", s.peak_rss);
                ("latency_p50_ms", fst (percentile 0.5 lat));
                ("latency_p95_ms", fst (percentile 0.95 lat)); ("throughput_rps", throughput);
              ];
          lines = fact_lines @ latency_lines lat @ [ noise_line noise ];
        }
    end
    else begin
      let warm = warm_state lanes in
      let sequence = List.concat s.first_cycles in
      let mark0 = process_mark () in
      let untraced = replay ~warm ~references sequence in
      let mark1 = process_mark () in
      let ctx = Trace.create () in
      let traced =
        Trace.with_span ctx ~cat:"bench" "bench.serve_warm" (fun () ->
            replay ~trace:ctx ~warm ~references sequence)
      in
      let st = Selftime.of_trace ctx in
      let total ops = List.fold_left (fun acc op -> acc +. op.seconds) 0.0 ops in
      let noise = Probe.noise_since ticks0 in
      let n_foa =
        List.fold_left
          (fun acc op -> match op.outcome with Ok r -> acc + final_n_foa r | Error _ -> acc)
          0 traced
      in
      let replays = untraced @ traced in
      Ok
        {
          attempted = socket_attempted + List.length replays;
          failures = socket_failures @ failures_of replays;
          metrics =
            with_units per_layer_units
              (span_values st (Trace.counter_totals ctx)
              @ [
                  ("plan.n_foa", float_of_int n_foa);
                  ("serve.service_ms_p50", fst (percentile 0.5 (List.map (fun r -> ms r.service) ok)));
                  ( "serve.overhead_ms_p50",
                    fst (percentile 0.5 (List.map (fun r -> ms (r.latency -. r.service)) ok)) );
                  ( "serve.cache_hit_ratio",
                    ratio
                      (float_of_int (List.length (List.filter (fun r -> r.hit) measured)))
                      (float_of_int (List.length measured)) );
                  ("serve.rejected", s.rejected); ("serve.queue_peak", s.queue_peak);
                  ("obs.trace_overhead_pct", 100.0 *. (ratio (total traced) (total untraced) -. 1.0));
                ]
              @ process_delta mark0 mark1 @ noise_values noise);
          lines =
            fact_lines
            @ [
                Printf.sprintf "replay requests=%d untraced_s=%.6f traced_s=%.6f"
                  (List.length sequence) (total untraced) (total traced);
              ]
            @ selftime_lines st @ [ noise_line noise ];
        }
    end
