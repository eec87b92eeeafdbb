(* The wire protocol of lacrd: newline-delimited JSON, one request and
   one response per line, over a Unix-domain or loopback TCP stream.
   Kept dependency-free (Jsonx only) so the daemon, the load generator
   and the tests all speak through the same builders and parsers. *)

module Jsonx = Lacr_obs.Jsonx

type endpoint =
  | Unix_path of string
  | Tcp of int

let pp_endpoint = function
  | Unix_path path -> "unix:" ^ path
  | Tcp port -> Printf.sprintf "tcp:127.0.0.1:%d" port

type request = {
  id : int;
  meth : string;
  params : Jsonx.t;
}

(* Stable error vocabulary; the codes are part of the protocol and
   documented in DESIGN.md §10.  A failed plan answers with
   [Planner.error_code], the one source of [routing_error] and
   [sanitize_violation]. *)
let code_bad_request = "bad_request"
let code_unknown_method = "unknown_method"
let code_unknown_circuit = "unknown_circuit"
let code_plan_failed = "plan_failed"
let code_stats_failed = "stats_failed"
let code_overloaded = "overloaded"
let code_shutting_down = "shutting_down"

(* JSON numbers are floats; one is an int only when it is integral
   and inside [min_int, max_int].  [int_of_float] is unspecified
   outside that range (1e30 gives 0), so such numbers are rejected
   rather than wrapped.  [-. Float.of_int min_int] is 2^62, the first
   float above [max_int]. *)
let int_of_number f =
  if Float.is_integer f && f >= Float.of_int min_int && f < -.Float.of_int min_int then
    Some (int_of_float f)
  else None

let param_int params key =
  Option.bind (Option.bind (Jsonx.member key params) Jsonx.to_float) int_of_number

let parse_request line =
  match Jsonx.parse line with
  | Error msg -> Error ("invalid JSON: " ^ msg)
  | Ok doc -> (
    let id = Option.bind (Jsonx.member "id" doc) Jsonx.to_float in
    let meth = Option.bind (Jsonx.member "method" doc) Jsonx.to_str in
    match (id, meth) with
    | None, _ -> Error "missing integer field \"id\""
    | _, None -> Error "missing string field \"method\""
    | Some id, Some meth -> (
      match int_of_number id with
      | None -> Error "field \"id\" must be an integer in the int range"
      | Some id ->
        let params =
          match Jsonx.member "params" doc with Some p -> p | None -> Jsonx.Obj []
        in
        Ok { id; meth; params }))

let param_str params key = Option.bind (Jsonx.member key params) Jsonx.to_str

let param_bool params key =
  match Jsonx.member key params with Some (Jsonx.Bool b) -> Some b | _ -> None

let request_json { id; meth; params } =
  Jsonx.Obj [ ("id", Jsonx.of_int id); ("method", Jsonx.Str meth); ("params", params) ]

let ok_response ~id body = Jsonx.Obj [ ("id", Jsonx.of_int id); ("ok", body) ]

let error_response ~id ~code ~message =
  let id_json = match id with Some i -> Jsonx.of_int i | None -> Jsonx.Null in
  Jsonx.Obj
    [
      ("id", id_json);
      ("error", Jsonx.Obj [ ("code", Jsonx.Str code); ("message", Jsonx.Str message) ]);
    ]

let response_id doc = param_int doc "id"

let ok_of doc = Jsonx.member "ok" doc

let error_of doc =
  match Jsonx.member "error" doc with
  | None -> None
  | Some err ->
    let code =
      match Option.bind (Jsonx.member "code" err) Jsonx.to_str with
      | Some c -> c
      | None -> "?"
    in
    let message =
      match Option.bind (Jsonx.member "message" err) Jsonx.to_str with
      | Some m -> m
      | None -> ""
    in
    Some (code, message)

(* NDJSON framing: the emitter streams straight into the channel (no
   intermediate string), the terminator is a single '\n', and the
   flush makes one call one wire message. *)
let write_message oc doc =
  Jsonx.emit_to_channel oc doc;
  output_char oc '\n';
  flush oc

let read_message ic =
  match input_line ic with
  | exception End_of_file -> Error "connection closed"
  | line -> (
    match Jsonx.parse line with
    | Ok doc -> Ok doc
    | Error msg -> Error ("invalid JSON on wire: " ^ msg))

(* Bounded line reader: a client (or a port scanner) must not be able
   to grow a server-side buffer without limit by never sending '\n'.
   On overflow the rest of the line is drained so the stream stays
   aligned on message boundaries and the connection remains usable. *)
let read_line_bounded ic ~max =
  let buf = Buffer.create (min max 256) in
  let rec drain () =
    match input_char ic with
    | exception End_of_file -> ()
    | '\n' -> ()
    | _ -> drain ()
  in
  let rec go () =
    match input_char ic with
    | exception End_of_file ->
      if Buffer.length buf = 0 then raise End_of_file else `Line (Buffer.contents buf)
    | '\n' -> `Line (Buffer.contents buf)
    | c ->
      if Buffer.length buf >= max then begin
        drain ();
        `Overflow
      end
      else begin
        Buffer.add_char buf c;
        go ()
      end
  in
  go ()
