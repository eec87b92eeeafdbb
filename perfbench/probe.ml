(* Process and host probes read from /proc: peak RSS and CPU time of a
   process, and the host's load and steal time, so every run records
   what it measured beside the noise it measured under. *)

(* The one clock of the benchmark: the planner's clock-injection point,
   as the load generator uses it. *)
let now = Lacr_obs.Trace.clock_of Lacr_obs.Trace.disabled

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | line -> go (line :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

let words line =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.map (function '\t' -> ' ' | c -> c) line))

let proc_dir = function None -> "/proc/self" | Some pid -> Printf.sprintf "/proc/%d" pid

(* VmHWM of a process (this one when [pid] is absent), in MB. *)
let peak_rss_mb ?pid () =
  let field line =
    match words line with
    | "VmHWM:" :: kb :: _ -> int_of_string_opt kb
    | _ -> None
  in
  match List.find_map field (read_lines (proc_dir pid ^ "/status")) with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> 0.0

(* Kernel clock ticks per second for /proc accounting (USER_HZ). *)
let ticks_per_s = 100.0

(* User + system CPU seconds of a process so far.  The command name in
   /proc/PID/stat is parenthesised and may hold spaces, so fields are
   counted from the closing parenthesis. *)
let cpu_s ?pid () =
  match read_lines (proc_dir pid ^ "/stat") with
  | line :: _ -> (
    match String.rindex_opt line ')' with
    | None -> 0.0
    | Some i -> (
      let rest = words (String.sub line (i + 1) (String.length line - i - 1)) in
      (* rest: state ppid pgrp session tty tpgid flags minflt cminflt
         majflt cmajflt utime stime ... *)
      match List.filteri (fun k _ -> k = 11 || k = 12) rest with
      | [ u; s ] -> (
        match (float_of_string_opt u, float_of_string_opt s) with
        | Some u, Some s -> (u +. s) /. ticks_per_s
        | _ -> 0.0)
      | _ -> 0.0))
  | [] -> 0.0

(* Aggregate (steal, total) ticks of the host from the first line of
   /proc/stat. *)
let host_ticks () =
  match read_lines "/proc/stat" with
  | line :: _ -> (
    match words line with
    | "cpu" :: fields ->
      let v = List.filter_map int_of_string_opt fields in
      let total = List.fold_left ( + ) 0 v in
      let steal = match List.nth_opt v 7 with Some s -> s | None -> 0 in
      (steal, total)
    | _ -> (0, 0))
  | [] -> (0, 0)

let load1 () =
  match read_lines "/proc/loadavg" with
  | line :: _ -> (
    match words line with l :: _ -> Option.value (float_of_string_opt l) ~default:0.0 | [] -> 0.0)
  | [] -> 0.0

let nproc () = Domain.recommended_domain_count ()

(* The noise context of one run: host steal over the run as a share of
   all host CPU time, the 1-minute load average at its end and the
   CPU count. *)
type noise = { steal_pct : float; load1 : float; nproc : int }

let noise_since (steal0, total0) =
  let steal1, total1 = host_ticks () in
  let dt = total1 - total0 in
  {
    steal_pct = (if dt > 0 then 100.0 *. float_of_int (steal1 - steal0) /. float_of_int dt else 0.0);
    load1 = load1 ();
    nproc = nproc ();
  }

(* Allocation of this process in Gwords: (minor, major). *)
let gc_gwords () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words /. 1e9, s.Gc.major_words /. 1e9)
