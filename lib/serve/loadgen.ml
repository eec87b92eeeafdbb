(* Deterministic load generator for lacrd: N concurrent connections
   replaying a seeded request mix, with optional byte-level
   verification of every plan result against fresh in-process plans.

   The schedule (which circuit each request asks for) is a pure
   function of the seed; only timing and the warm/cold disposition of
   individual requests vary between runs.  Verification exploits the
   daemon's determinism contract: the "result" subtree must render
   byte-identically for every request for a circuit — warm or cold —
   and must equal the rendering of a single-shot plan computed on the
   client side. *)

module Jsonx = Lacr_obs.Jsonx
module Rng = Lacr_util.Rng

type options = {
  endpoint : Protocol.endpoint;
  connections : int;
  requests : int;
  seed : int;
  mix : string list;
  verify : bool;
  second_iteration : bool;
  wait_s : float;
  shutdown_after : bool;
}

type summary = {
  sent : int;
  ok : int;
  failed : (string * int) list;
  cache_hits : int;
  cache_misses : int;
  cold_us : int * int;  (* (total, count) over cache misses *)
  warm_us : int * int;  (* (total, count) over cache hits *)
  verified_circuits : int;
  result_mismatches : int;
  metrics_counters : int;
  metrics_mismatches : int;
}

let clock = Lacr_obs.Trace.clock_of Lacr_obs.Trace.disabled

let socket_for = function
  | Protocol.Unix_path _ -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
  | Protocol.Tcp _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0

let addr_of = function
  | Protocol.Unix_path path -> Unix.ADDR_UNIX path
  | Protocol.Tcp port -> Unix.ADDR_INET (Unix.inet_addr_loopback, port)

(* Retry until the daemon starts listening (the smoke target launches
   lacrd in the background) or [wait_s] runs out. *)
let connect ~wait_s endpoint =
  let deadline = clock () +. wait_s in
  (* Socket creation sits inside the handled region too: on a
     descriptor-exhausted host [Unix.socket] itself raises, and that
     must surface as a tallied failure, not kill the worker thread. *)
  let attempt () =
    match socket_for endpoint with
    | exception Unix.Unix_error (err, _, _) -> Error err
    | fd -> (
      match Unix.connect fd (addr_of endpoint) with
      | () -> Ok fd
      | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error err)
  in
  let rec go () =
    match attempt () with
    | Ok fd -> Ok fd
    | Error err ->
      if clock () < deadline then begin
        Unix.sleepf 0.05;
        go ()
      end
      else
        Error
          (Printf.sprintf "connect %s: %s" (Protocol.pp_endpoint endpoint)
             (Unix.error_message err))
  in
  go ()

(* Shared tally across the connection threads. *)
type tally = {
  mutex : Mutex.t;
  mutable ok : int;
  mutable failed : (string * int) list;  (* name-sorted *)
  mutable hits : int;
  mutable misses : int;
  mutable cold_total : int;
  mutable cold_count : int;
  mutable warm_total : int;
  mutable warm_count : int;
  observed : (string, string) Hashtbl.t;  (* circuit -> first result rendering *)
  mutable mismatches : int;
  mutable counter_sums : (string * int) list;  (* sum of per-request echoes *)
}

let record_failure tally code =
  tally.failed <- Service.merge_counters tally.failed [ (code, 1) ]

let record_ok tally ~circuit body ~elapsed =
  tally.ok <- tally.ok + 1;
  (match Option.bind (Jsonx.member "cache" body) Jsonx.to_str with
  | Some "hit" ->
    tally.hits <- tally.hits + 1;
    tally.warm_total <- tally.warm_total + elapsed;
    tally.warm_count <- tally.warm_count + 1
  | Some "miss" ->
    tally.misses <- tally.misses + 1;
    tally.cold_total <- tally.cold_total + elapsed;
    tally.cold_count <- tally.cold_count + 1
  | Some _ | None -> ());
  (match Jsonx.member "result" body with
  | None -> tally.mismatches <- tally.mismatches + 1
  | Some result -> (
    let rendered = Jsonx.to_string result in
    match Hashtbl.find_opt tally.observed circuit with
    | None -> Hashtbl.replace tally.observed circuit rendered
    | Some first ->
      if not (String.equal first rendered) then tally.mismatches <- tally.mismatches + 1));
  match Option.bind (Jsonx.member "metrics" body) (Jsonx.member "counters") with
  | Some (Jsonx.Obj fields) ->
    (* An echo that is no int is dropped, so the sums cannot match
       the daemon's aggregate and [check_metrics] counts a mismatch. *)
    let echoed =
      List.filter_map
        (fun (k, v) ->
          Option.map (fun n -> (k, n)) (Option.bind (Jsonx.to_float v) Protocol.int_of_number))
        fields
    in
    let echoed = List.sort (fun (a, _) (b, _) -> String.compare a b) echoed in
    tally.counter_sums <- Service.merge_counters tally.counter_sums echoed
  | Some _ | None -> ()

let record_response tally ~circuit doc =
  Mutex.lock tally.mutex;
  (match Protocol.ok_of doc with
  | None ->
    let code = match Protocol.error_of doc with Some (c, _) -> c | None -> "malformed" in
    record_failure tally code
  | Some body -> (
    (* [elapsed_us] counts as 0 when absent; a number outside the int
       range, where [int_of_float] is unspecified, makes the reply
       malformed. *)
    match Option.bind (Jsonx.member "elapsed_us" body) Jsonx.to_float with
    | None -> record_ok tally ~circuit body ~elapsed:0
    | Some f -> (
      match Protocol.int_of_number f with
      | Some elapsed -> record_ok tally ~circuit body ~elapsed
      | None -> record_failure tally "malformed")));
  Mutex.unlock tally.mutex

let plan_request ~id ~circuit ~second_iteration =
  {
    Protocol.id;
    meth = "plan";
    params =
      Jsonx.Obj
        [
          ("circuit", Jsonx.Str circuit);
          ("second_iteration", Jsonx.Bool second_iteration);
          ("metrics", Jsonx.Bool true);
        ];
  }

(* One connection: its slice of the schedule (round-robin by index),
   strictly sequential request/response pairs. *)
let connection_worker opts tally schedule slot () =
  match connect ~wait_s:opts.wait_s opts.endpoint with
  | Error msg ->
    Mutex.lock tally.mutex;
    record_failure tally ("connect_failed: " ^ msg);
    Mutex.unlock tally.mutex
  | Ok fd ->
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let rec go i =
      if i < Array.length schedule then begin
        let circuit = schedule.(i) in
        let request = plan_request ~id:i ~circuit ~second_iteration:opts.second_iteration in
        match
          Protocol.write_message oc (Protocol.request_json request);
          Protocol.read_message ic
        with
        | Ok doc ->
          record_response tally ~circuit doc;
          go (i + opts.connections)
        | Error msg ->
          Mutex.lock tally.mutex;
          record_failure tally ("io_error: " ^ msg);
          Mutex.unlock tally.mutex
        | exception Sys_error msg ->
          Mutex.lock tally.mutex;
          record_failure tally ("io_error: " ^ msg);
          Mutex.unlock tally.mutex
      end
    in
    go slot;
    (try Unix.close fd with Unix.Unix_error _ -> ())

(* Client-side oracle: fresh single-shot plans for every distinct
   circuit of the schedule, compared byte-for-byte with the servings. *)
let verify_results opts tally distinct =
  List.fold_left
    (fun (verified, mismatches) circuit ->
      match Hashtbl.find_opt tally.observed circuit with
      | None -> (verified, mismatches)  (* every request for it failed *)
      | Some observed -> (
        match Service.reference_result ~second_iteration:opts.second_iteration circuit with
        | Error _ -> (verified, mismatches + 1)
        | Ok reference ->
          if String.equal (Jsonx.to_string reference) observed then (verified + 1, mismatches)
          else (verified, mismatches + 1)))
    (0, 0) distinct

(* Pull the daemon's aggregate, validate it against the Export metrics
   schema, and — when this generator was the only client and nothing
   failed — check that it equals the sum of the per-request echoes.
   The same connection then carries the optional shutdown request. *)
let check_metrics opts tally =
  match connect ~wait_s:opts.wait_s opts.endpoint with
  | Error _ -> (0, 1)
  | Ok fd ->
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    let call meth id =
      match
        Protocol.write_message oc
          (Protocol.request_json { Protocol.id; meth; params = Jsonx.Obj [] });
        Protocol.read_message ic
      with
      | Ok doc -> Protocol.ok_of doc
      | Error _ -> None
      | exception Sys_error _ -> None
    in
    let result =
      match call "metrics" (opts.requests + 1) with
      | None -> (0, 1)
      | Some body -> (
        match Lacr_obs.Export.validate_metrics_string ~csv:false (Jsonx.to_string body) with
        | Error _ -> (0, 1)
        | Ok n_counters ->
          let aggregate =
            match Jsonx.member "counters" body with
            | Some (Jsonx.Obj fields) -> fields
            | Some _ | None -> []
          in
          let mismatched =
            match tally.failed with
            | _ :: _ ->
              (* failed requests still feed the aggregate but echo
                 nothing back, so equality only holds on a clean run *)
              0
            | [] ->
              List.length
                (List.filter
                   (fun (k, expected) ->
                     match
                       Option.bind
                         (Option.bind (List.assoc_opt k aggregate) Jsonx.to_float)
                         Protocol.int_of_number
                     with
                     | Some n -> n <> expected
                     | None -> true)
                   tally.counter_sums)
          in
          (n_counters, mismatched))
    in
    if opts.shutdown_after then (match call "shutdown" (opts.requests + 2) with _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ());
    result

let run opts =
  if opts.requests <= 0 || opts.connections <= 0 then Error "loadgen: empty run"
  else if (match opts.mix with [] -> true | _ :: _ -> false) then
    Error "loadgen: empty circuit mix"
  else begin
    let rng = Rng.create opts.seed in
    let mix = Array.of_list opts.mix in
    let schedule = Array.init opts.requests (fun _ -> Rng.choose rng mix) in
    let tally =
      {
        mutex = Mutex.create ();
        ok = 0;
        failed = [];
        hits = 0;
        misses = 0;
        cold_total = 0;
        cold_count = 0;
        warm_total = 0;
        warm_count = 0;
        observed = Hashtbl.create 8;
        mismatches = 0;
        counter_sums = [];
      }
    in
    let connections = min opts.connections opts.requests in
    let threads =
      List.init connections (fun slot ->
          Thread.create (connection_worker opts tally schedule slot) ())
    in
    List.iter Thread.join threads;
    let distinct = List.sort_uniq String.compare (Array.to_list schedule) in
    let verified, verify_mismatches =
      if opts.verify then verify_results opts tally distinct else (0, 0)
    in
    let metrics_counters, metrics_mismatches = check_metrics opts tally in
    Ok
      {
        sent = opts.requests;
        ok = tally.ok;
        failed = tally.failed;
        cache_hits = tally.hits;
        cache_misses = tally.misses;
        cold_us = (tally.cold_total, tally.cold_count);
        warm_us = (tally.warm_total, tally.warm_count);
        verified_circuits = verified;
        result_mismatches = tally.mismatches + verify_mismatches;
        metrics_counters;
        metrics_mismatches;
      }
  end

let avg (total, count) = if count = 0 then 0 else total / count

let passed s =
  s.result_mismatches = 0 && s.metrics_mismatches = 0
  && List.for_all
       (fun (code, _) ->
         String.equal code Protocol.code_overloaded
         || String.equal code Protocol.code_shutting_down)
       s.failed

let render_summary s =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "loadgen: %d sent, %d ok, %d cache hits, %d misses\n" s.sent s.ok
       s.cache_hits s.cache_misses);
  if s.cold_us <> (0, 0) || s.warm_us <> (0, 0) then
    Buffer.add_string b
      (Printf.sprintf "latency: cold avg %d us (%d), warm avg %d us (%d)\n" (avg s.cold_us)
         (snd s.cold_us) (avg s.warm_us) (snd s.warm_us));
  List.iter
    (fun (code, n) -> Buffer.add_string b (Printf.sprintf "failed [%s]: %d\n" code n))
    s.failed;
  if s.verified_circuits > 0 then
    Buffer.add_string b
      (Printf.sprintf "verified %d circuit(s) against fresh single-shot plans\n"
         s.verified_circuits);
  Buffer.add_string b
    (Printf.sprintf "metrics: %d counters, %d aggregate mismatch(es)\n" s.metrics_counters
       s.metrics_mismatches);
  Buffer.add_string b
    (Printf.sprintf "result mismatches: %d\n%s\n" s.result_mismatches
       (if passed s then "PASS" else "FAIL"));
  Buffer.contents b
