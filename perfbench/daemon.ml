(* A private lacrd for one run: started from the build tree on a Unix
   socket inside the working directory, driven over its NDJSON
   protocol, and always stopped and reaped before the run ends. *)

module Protocol = Lacr_serve.Protocol
module Jsonx = Lacr_obs.Jsonx

type t = { pid : int; socket : string }

(* The daemon binary sits beside this executable's directory in the
   dune build tree: _build/default/{perfbench,bin}. *)
let lacrd_path () =
  Filename.concat (Filename.dirname (Filename.dirname Sys.executable_name)) "bin/lacrd.exe"

let run_dir = ".perfbench"
let make_run_dir () = try Unix.mkdir run_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let start ~workers ~domains ~queue_depth =
  let exe = lacrd_path () in
  if not (Sys.file_exists exe) then Error ("lacrd not built at " ^ exe)
  else begin
    make_run_dir ();
    let socket = Printf.sprintf "%s/lacrd-%d.sock" run_dir (Unix.getpid ()) in
    (try Sys.remove socket with Sys_error _ -> ());
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let args =
      [|
        exe; "--socket"; socket; "--workers"; string_of_int workers; "--domains";
        string_of_int domains; "--queue-depth"; string_of_int queue_depth;
      |]
    in
    (* A daemon that dies mid-run must surface as failed requests, not
       kill this process on its next write. *)
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let pid = Unix.create_process exe args devnull devnull devnull in
    Unix.close devnull;
    Ok { pid; socket }
  end

type conn = { ic : in_channel; oc : out_channel; fd : Unix.file_descr }

(* Retry until the daemon listens or [wait_s] runs out. *)
let connect ?(wait_s = 20.0) t =
  let deadline = Probe.now () +. wait_s in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX t.socket) with
    | () -> Ok { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd; fd }
    | exception Unix.Unix_error (err, _, _) ->
      Unix.close fd;
      if Probe.now () < deadline then begin
        Unix.sleepf 0.01;
        go ()
      end
      else Error ("connect " ^ t.socket ^ ": " ^ Unix.error_message err)
  in
  go ()

let close_conn c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* One round trip; transport failures come back as [Error]. *)
let call c ~id ~meth params =
  match
    Protocol.write_message c.oc (Protocol.request_json { Protocol.id; meth; params });
    Protocol.read_message c.ic
  with
  | reply -> reply
  | exception (Sys_error msg | Failure msg) -> Error msg
  | exception End_of_file -> Error "connection closed by lacrd"

let plan_params circuit =
  Jsonx.Obj [ ("circuit", Jsonx.Str circuit); ("second_iteration", Jsonx.Bool false) ]

(* Ask for a clean shutdown, then reap; a daemon that does not exit in
   time is killed.  Either way the process is waited for. *)
let stop t =
  (match connect ~wait_s:1.0 t with
  | Ok c ->
    ignore (call c ~id:0 ~meth:"shutdown" (Jsonx.Obj []));
    close_conn c
  | Error _ -> ());
  let deadline = Probe.now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Probe.now () < deadline ->
      Unix.sleepf 0.02;
      reap ()
    | 0, _ ->
      (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] t.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  try Sys.remove t.socket with Sys_error _ -> ()

(* Run [f] against a started daemon and stop it whatever [f] does. *)
let with_daemon ~workers ~domains ~queue_depth f =
  match start ~workers ~domains ~queue_depth with
  | Error msg -> Error msg
  | Ok t -> Fun.protect ~finally:(fun () -> stop t) (fun () -> f t)
