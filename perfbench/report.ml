(* Rendering of one run: human-readable lines, then the result as the
   last line of standard output.  Values print with all their digits. *)

module W = Workloads

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let result_line (r : W.measured) =
  let failed = List.length r.W.failures in
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string m.W.name) (number m.W.value)
          (json_string m.W.unit_))
      r.W.metrics
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (failed = 0) r.W.attempted failed (String.concat ", " metrics)

let print (r : W.measured) =
  List.iter print_endline r.W.lines;
  List.iter (fun f -> print_endline ("FAILED " ^ f)) r.W.failures;
  Printf.printf "error_rate %.6f (%d of %d operations failed)\n"
    (if r.W.attempted > 0 then float_of_int (List.length r.W.failures) /. float_of_int r.W.attempted
     else 0.0)
    (List.length r.W.failures) r.W.attempted;
  List.iter
    (fun m -> Printf.printf "metric %-26s %18.6f %s\n" m.W.name m.W.value m.W.unit_)
    r.W.metrics;
  print_endline (result_line r)
