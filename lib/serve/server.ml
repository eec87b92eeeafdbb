(* The lacrd server: a listening socket, one lightweight connection
   thread per client (blocking NDJSON IO), and a fixed set of worker
   domains draining a bounded job queue.

   A new job wakes the lowest-numbered idle worker, so requests that
   arrive one at a time all run on worker 0 and the daemon's memory
   does not depend on which worker the scheduler wakes (DESIGN.md §10).

   Backpressure is explicit: a plan/stats request that arrives while
   [queue_depth] jobs are already waiting is rejected immediately with
   the [overloaded] code instead of queueing without bound.  health,
   metrics and shutdown are answered inline by the connection thread —
   they stay responsive at any load, which is what makes the
   backpressure drill (and operational probing) deterministic.

   Shutdown sequence: mark stopping (new work is rejected with
   [shutting_down]), close the listener (unblocks accept), wake the
   workers (they drain the queue, then exit), join them, then shut the
   read side of every live client socket (unblocks the readers without
   cutting off in-flight replies) and join the connection threads. *)

module Jsonx = Lacr_obs.Jsonx

type options = {
  endpoint : Protocol.endpoint;
  workers : int;
  queue_depth : int;
  max_line : int;
}

let default_options =
  {
    endpoint = Protocol.Unix_path "lacrd.sock";
    workers = 2;
    queue_depth = 8;
    max_line = 1_048_576;
  }

type job = {
  request : Protocol.request;
  cell_mutex : Mutex.t;
  cell_filled : Condition.t;
  mutable response : Jsonx.t option;
}

type t = {
  service : Service.t;
  options : options;
  listener : Unix.file_descr;
  queue : job Queue.t;
  qmutex : Mutex.t;  (* guards [queue] and [idle] *)
  idle : bool array;  (* worker i waits on [wake.(i)] *)
  wake : Condition.t array;
  stopping : bool Atomic.t;
  in_flight : int Atomic.t;
  connections_total : int Atomic.t;
  requests_total : int Atomic.t;
  rejected_total : int Atomic.t;
  queue_peak : int Atomic.t;
  mutable worker_domains : unit Domain.t list;  (* written once in [start] *)
  conn_mutex : Mutex.t;  (* guards the two conn lists *)
  mutable conn_fds : Unix.file_descr list;
  mutable conn_threads : Thread.t list;
}

(* --- workers --- *)

let fill job response =
  Mutex.lock job.cell_mutex;
  job.response <- Some response;
  Condition.signal job.cell_filled;
  Mutex.unlock job.cell_mutex

let rec worker_loop t i =
  Mutex.lock t.qmutex;
  while Queue.is_empty t.queue && not (Atomic.get t.stopping) do
    t.idle.(i) <- true;
    Condition.wait t.wake.(i) t.qmutex
  done;
  t.idle.(i) <- false;
  let job = Queue.take_opt t.queue in
  Mutex.unlock t.qmutex;
  match job with
  | None -> ()  (* stopping, queue drained *)
  | Some job ->
    Atomic.incr t.in_flight;
    let response =
      (* Service.handle is exception-free by contract; this is the
         last-resort net that keeps a worker domain alive anyway. *)
      try Service.handle t.service job.request
      with exn ->
        Protocol.error_response ~id:(Some job.request.Protocol.id)
          ~code:Protocol.code_plan_failed
          ~message:("internal error: " ^ Printexc.to_string exn)
    in
    Atomic.decr t.in_flight;
    fill job response;
    worker_loop t i

(* --- request routing (connection threads) --- *)

let queued t =
  Mutex.lock t.qmutex;
  let n = Queue.length t.queue in
  Mutex.unlock t.qmutex;
  n

let submit t request =
  Mutex.lock t.qmutex;
  if Atomic.get t.stopping then begin
    Mutex.unlock t.qmutex;
    Protocol.error_response ~id:(Some request.Protocol.id)
      ~code:Protocol.code_shutting_down ~message:"daemon is shutting down"
  end
  else if Queue.length t.queue >= t.options.queue_depth then begin
    Mutex.unlock t.qmutex;
    Atomic.incr t.rejected_total;
    Protocol.error_response ~id:(Some request.Protocol.id) ~code:Protocol.code_overloaded
      ~message:
        (Printf.sprintf "request queue full (%d waiting); retry later"
           t.options.queue_depth)
  end
  else begin
    let job =
      { request; cell_mutex = Mutex.create (); cell_filled = Condition.create (); response = None }
    in
    Queue.add job t.queue;
    let depth = Queue.length t.queue in
    (* A busy worker looks at the queue before it waits again, so with
       no worker idle the job is not lost.  The woken worker counts as
       busy at once: a second job meanwhile wakes the next one. *)
    (match Array.find_index Fun.id t.idle with
    | Some i ->
      t.idle.(i) <- false;
      Condition.signal t.wake.(i)
    | None -> ());
    Mutex.unlock t.qmutex;
    let rec raise_peak () =
      let peak = Atomic.get t.queue_peak in
      if depth > peak && not (Atomic.compare_and_set t.queue_peak peak depth) then raise_peak ()
    in
    raise_peak ();
    Mutex.lock job.cell_mutex;
    while Option.is_none job.response do
      Condition.wait job.cell_filled job.cell_mutex
    done;
    let response = job.response in
    Mutex.unlock job.cell_mutex;
    match response with
    | Some r -> r
    | None ->
      Protocol.error_response ~id:(Some request.Protocol.id) ~code:Protocol.code_plan_failed
        ~message:"internal error: empty reply cell"
  end

let health_body t =
  Jsonx.Obj
    [
      ("status", Jsonx.Str (if Atomic.get t.stopping then "stopping" else "ok"));
      ("in_flight", Jsonx.of_int (Atomic.get t.in_flight));
      ("queued", Jsonx.of_int (queued t));
      ("workers", Jsonx.of_int t.options.workers);
      ("queue_depth", Jsonx.of_int t.options.queue_depth);
      ("connections", Jsonx.of_int (Atomic.get t.connections_total));
      ("requests", Jsonx.of_int (Atomic.get t.requests_total));
      ("rejected", Jsonx.of_int (Atomic.get t.rejected_total));
    ]

let server_counters t =
  [
    ("serve.connections", Atomic.get t.connections_total);
    ("serve.queue_peak", Atomic.get t.queue_peak);
    ("serve.rejected", Atomic.get t.rejected_total);
    ("serve.wire_requests", Atomic.get t.requests_total);
  ]

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let wake_all t =
  Mutex.lock t.qmutex;
  Array.iter Condition.signal t.wake;
  Mutex.unlock t.qmutex

let begin_stop t =
  if not (Atomic.exchange t.stopping true) then begin
    (* Unblock accept; the run loop does the joining. *)
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    close_quietly t.listener;
    wake_all t
  end

let handle_inline_or_submit t request =
  match request.Protocol.meth with
  | "health" -> Protocol.ok_response ~id:request.Protocol.id (health_body t)
  | "metrics" ->
    Service.metrics_response t.service ~id:request.Protocol.id ~extra:(server_counters t)
  | "shutdown" ->
    let response =
      Protocol.ok_response ~id:request.Protocol.id (Jsonx.Obj [ ("stopping", Jsonx.Bool true) ])
    in
    begin_stop t;
    response
  | _ -> submit t request

(* --- connections --- *)

let unregister_conn t fd =
  Mutex.lock t.conn_mutex;
  t.conn_fds <- List.filter (fun other -> other != fd) t.conn_fds;
  Mutex.unlock t.conn_mutex

let connection_loop t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let rec loop () =
    match Protocol.read_line_bounded ic ~max:t.options.max_line with
    | exception (End_of_file | Sys_error _) -> ()
    | `Overflow -> begin
      let response =
        Protocol.error_response ~id:None ~code:Protocol.code_bad_request
          ~message:
            (Printf.sprintf "request line exceeds %d bytes" t.options.max_line)
      in
      match Protocol.write_message oc response with
      | () -> loop ()
      | exception Sys_error _ -> ()
    end
    | `Line line ->
      if String.equal (String.trim line) "" then loop ()
      else begin
        let response =
          match Protocol.parse_request line with
          | Error msg ->
            Protocol.error_response ~id:None ~code:Protocol.code_bad_request ~message:msg
          | Ok request ->
            Atomic.incr t.requests_total;
            handle_inline_or_submit t request
        in
        match Protocol.write_message oc response with
        | () -> loop ()
        | exception Sys_error _ -> ()
      end
  in
  loop ();
  unregister_conn t fd;
  close_quietly fd

(* --- lifecycle --- *)

let listen_on endpoint =
  match endpoint with
  | Protocol.Unix_path path ->
    if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Protocol.Tcp port ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    Unix.listen fd 64;
    fd

let start ?(options = default_options) service =
  (* A client that disconnects mid-reply must not kill the daemon. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listener = listen_on options.endpoint in
  let workers = max 1 options.workers in
  let t =
    {
      service;
      options = { options with workers };
      listener;
      queue = Queue.create ();
      qmutex = Mutex.create ();
      idle = Array.make workers false;
      wake = Array.init workers (fun _ -> Condition.create ());
      stopping = Atomic.make false;
      in_flight = Atomic.make 0;
      connections_total = Atomic.make 0;
      requests_total = Atomic.make 0;
      rejected_total = Atomic.make 0;
      queue_peak = Atomic.make 0;
      worker_domains = [];
      conn_mutex = Mutex.create ();
      conn_fds = [];
      conn_threads = [];
    }
  in
  t.worker_domains <- List.init workers (fun i -> Domain.spawn (fun () -> worker_loop t i));
  t

let endpoint t =
  match Unix.getsockname t.listener with
  | Unix.ADDR_UNIX path -> Protocol.Unix_path path
  | Unix.ADDR_INET (_, port) -> Protocol.Tcp port
  | exception Unix.Unix_error _ -> t.options.endpoint

let stop = begin_stop

let run t =
  let rec accept_loop () =
    if Atomic.get t.stopping then ()
    else
      match Unix.accept t.listener with
      | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) -> accept_loop ()
      | exception Unix.Unix_error (_, _, _) ->
        (* EBADF/EINVAL after [begin_stop] closed the listener; any
           other accept failure also ends the serving loop. *)
        ()
      | fd, _addr ->
        Atomic.incr t.connections_total;
        Mutex.lock t.conn_mutex;
        t.conn_fds <- fd :: t.conn_fds;
        Mutex.unlock t.conn_mutex;
        let thread = Thread.create (fun () -> connection_loop t fd) () in
        Mutex.lock t.conn_mutex;
        t.conn_threads <- thread :: t.conn_threads;
        Mutex.unlock t.conn_mutex;
        accept_loop ()
  in
  accept_loop ();
  Atomic.set t.stopping true;
  wake_all t;
  List.iter Domain.join t.worker_domains;
  (* Read-side shutdown only: blocked readers wake with EOF while
     replies still in flight go out before each thread closes. *)
  Mutex.lock t.conn_mutex;
  let fds = t.conn_fds and threads = t.conn_threads in
  Mutex.unlock t.conn_mutex;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with Unix.Unix_error _ -> ())
    fds;
  List.iter Thread.join threads;
  match t.options.endpoint with
  | Protocol.Unix_path path ->
    if Sys.file_exists path then (try Sys.remove path with Sys_error _ -> ())
  | Protocol.Tcp _ -> ()
