(* lacrd: the planner-as-a-service daemon.

   Listens on a Unix-domain socket (or loopback TCP), speaks the
   newline-delimited JSON protocol of Lacr_serve.Protocol, keeps
   prepared pipelines and compiled flow solvers resident between
   requests, and multiplexes planning work over a bounded queue and a
   fixed worker-domain set.  `lacr serve-client` is the matching load
   generator. *)

module Serve = Lacr_serve
module Config = Lacr_core.Config

(* glibc's mallopt(M_MMAP_THRESHOLD); a no-op on other C libraries.
   See lacrd_malloc.c. *)
external pin_mmap_threshold : int -> unit = "lacrd_pin_mmap_threshold" [@@noalloc]

(* glibc's initial threshold: large OCaml blocks above it are mapped
   on their own and unmapped when the collector frees them. *)
let mmap_threshold = 128 * 1024

let run socket tcp workers queue_depth max_line domains seed second_iteration =
  let endpoint =
    match (socket, tcp) with
    | _, Some port -> Serve.Protocol.Tcp port
    | Some path, None -> Serve.Protocol.Unix_path path
    | None, None -> Serve.Protocol.Unix_path "lacrd.sock"
  in
  let config =
    let c = Config.default in
    let c = match seed with Some s -> { c with Config.seed = s } | None -> c in
    match domains with Some d -> { c with Config.domains = d } | None -> c
  in
  (* Before the worker domains start, so no arena keeps freed blocks
     of the first cold plans. *)
  pin_mmap_threshold mmap_threshold;
  let service = Serve.Service.create ~config ~second_iteration () in
  match
    Serve.Server.start
      ~options:{ Serve.Server.endpoint; workers; queue_depth; max_line }
      service
  with
  | exception Unix.Unix_error (err, fn, arg) ->
    Printf.eprintf "lacrd: cannot listen on %s: %s (%s %s)\n"
      (Serve.Protocol.pp_endpoint endpoint)
      (Unix.error_message err) fn arg;
    1
  | server ->
    Printf.printf "lacrd: serving on %s (%d workers, queue depth %d)\n%!"
      (Serve.Protocol.pp_endpoint (Serve.Server.endpoint server))
      (max 1 workers) queue_depth;
    Serve.Server.run server;
    print_endline "lacrd: shut down cleanly";
    0

open Cmdliner

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path to listen on (default lacrd.sock).")

let tcp_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "tcp" ] ~docv:"PORT"
        ~doc:"Listen on loopback TCP instead of a Unix socket (0 = pick a free port).")

let workers_arg =
  Arg.(
    value & opt int 2
    & info [ "workers" ] ~docv:"N"
        ~doc:"Worker domains serving plan/stats requests concurrently.")

let queue_depth_arg =
  Arg.(
    value & opt int 8
    & info [ "queue-depth" ] ~docv:"N"
        ~doc:
          "Maximum requests waiting for a worker; beyond it requests are rejected \
           immediately with the $(b,overloaded) error code.")

let max_line_arg =
  Arg.(
    value
    & opt int Lacr_serve.Server.default_options.Lacr_serve.Server.max_line
    & info [ "max-line" ] ~docv:"BYTES"
        ~doc:
          "Longest accepted request line; longer lines are rejected with the \
           $(b,bad_request) error code without buffering them.")

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Worker domains $(i,inside) each planning run (the planner's parallel kernels); \
           results are bit-identical for every value.")

let seed_arg =
  Arg.(
    value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc:"Planner random seed.")

let second_arg =
  Arg.(
    value & opt bool true
    & info [ "second-iteration" ] ~docv:"BOOL"
        ~doc:"Default for plan requests that do not set second_iteration themselves.")

let cmd =
  let doc = "LAC-retiming planner daemon (newline-delimited JSON over a socket)" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Methods: $(b,plan) (run the full pipeline on a resident circuit; repeated requests \
         hit warm caches), $(b,stats) (structural statistics), $(b,metrics) (service-lifetime \
         counters and latency histograms in the Export schema), $(b,health) (queue/worker \
         probe, never queued), $(b,shutdown) (drain and exit 0).";
      `P "Requests: {\"id\":N,\"method\":M,\"params\":{...}} — one per line.";
    ]
  in
  Cmd.v
    (Cmd.info "lacrd" ~version:"1.0.0" ~doc ~man)
    Term.(
      const run $ socket_arg $ tcp_arg $ workers_arg $ queue_depth_arg $ max_line_arg
      $ domains_arg $ seed_arg $ second_arg)

let () = exit (Cmd.eval' cmd)
