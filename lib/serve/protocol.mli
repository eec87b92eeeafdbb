(** The lacrd wire protocol: newline-delimited JSON over a Unix-domain
    or loopback TCP stream.

    One request per line, one response per line.  A request is
    [{"id": N, "method": M, "params": {...}}]; a response is either
    [{"id": N, "ok": {...}}] or
    [{"id": N, "error": {"code": C, "message": S}}] (with [id: null]
    when the request line itself was unparseable).  The error codes
    are a closed, stable vocabulary — see DESIGN.md §10. *)

type endpoint =
  | Unix_path of string  (** Unix-domain stream socket at this path *)
  | Tcp of int  (** loopback TCP on this port *)

val pp_endpoint : endpoint -> string

type request = {
  id : int;
  meth : string;
  params : Lacr_obs.Jsonx.t;  (** [Obj []] when absent *)
}

(** {2 Error codes} *)

val code_bad_request : string
val code_unknown_method : string
val code_unknown_circuit : string
val code_plan_failed : string
val code_stats_failed : string
val code_overloaded : string
val code_shutting_down : string

(** {2 Parsing and building} *)

val parse_request : string -> (request, string) result
(** Parse one request line.  The [Error] message is suitable for a
    [bad_request] response verbatim. *)

val int_of_number : float -> int option
(** [Some] only for an integral float inside [\[min_int, max_int\]]
    (so [-2^62] is accepted, [2^62], [1e30] and [1.5] are not):
    [int_of_float] is unspecified outside that range. *)

val param_str : Lacr_obs.Jsonx.t -> string -> string option
val param_int : Lacr_obs.Jsonx.t -> string -> int option
(** [Some] only for an integral number inside [\[min_int, max_int\]];
    any other value, or none, gives [None]. *)

val param_bool : Lacr_obs.Jsonx.t -> string -> bool option

val request_json : request -> Lacr_obs.Jsonx.t
val ok_response : id:int -> Lacr_obs.Jsonx.t -> Lacr_obs.Jsonx.t
val error_response : id:int option -> code:string -> message:string -> Lacr_obs.Jsonx.t

val response_id : Lacr_obs.Jsonx.t -> int option
val ok_of : Lacr_obs.Jsonx.t -> Lacr_obs.Jsonx.t option

val error_of : Lacr_obs.Jsonx.t -> (string * string) option
(** [(code, message)] of an error response. *)

(** {2 Framing} *)

val write_message : out_channel -> Lacr_obs.Jsonx.t -> unit
(** Stream the document, terminate with ['\n'], flush. *)

val read_message : in_channel -> (Lacr_obs.Jsonx.t, string) result
(** Read and parse one line. *)

val read_line_bounded : in_channel -> max:int -> [ `Line of string | `Overflow ]
(** Read one '\n'-terminated line of at most [max] bytes (terminator
    excluded).  On overflow the remainder of the line is consumed so
    the next read starts on a fresh message.  @raise End_of_file at a
    clean end of stream, like {!Stdlib.input_line}. *)
