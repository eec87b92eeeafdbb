(* Tokenized line-based reader.  Continuations are folded first; then
   each line is either a directive (leading '.') or a cover row
   belonging to the open [.names]. *)

let fold_continuations text =
  let lines = String.split_on_char '\n' text in
  let rec fold acc current = function
    | [] -> List.rev (if current = "" then acc else current :: acc)
    | line :: rest ->
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      let trimmed = String.trim line in
      let joined = if current = "" then trimmed else current ^ " " ^ trimmed in
      if String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = '\\' then
        fold acc (String.sub joined 0 (String.length joined - 1)) rest
      else fold (joined :: acc) "" rest
  in
  fold [] "" lines |> List.filter (( <> ) "")

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (( <> ) "")

(* --- cover classification --- *)

type cover = { arity : int; rows : string list  (** input patterns of on-set rows *) }

let classify_cover { arity; rows } =
  let sorted = List.sort_uniq compare rows in
  let all c = String.make arity c in
  let one_hot c =
    (* arity rows; row i carries [c] at position i and '-' elsewhere *)
    let expected =
      List.init arity (fun i -> String.mapi (fun j _ -> if i = j then c else '-') (all '-'))
    in
    sorted = List.sort compare expected
  in
  if arity = 1 then
    match sorted with
    | [ "1" ] -> Some Gate.Buf
    | [ "0" ] -> Some Gate.Not
    | _ -> None
  else if sorted = [ all '1' ] then Some Gate.And
  else if sorted = [ all '0' ] then Some Gate.Nor
  else if one_hot '0' then Some Gate.Nand
  else if one_hot '1' then Some Gate.Or
  else if arity = 2 && sorted = [ "01"; "10" ] then Some Gate.Xor
  else if arity = 2 && sorted = [ "00"; "11" ] then Some Gate.Xnor
  else None

let cover_of_gate kind arity =
  let all c = String.make arity c in
  let one_hot c =
    List.init arity (fun i -> String.mapi (fun j _ -> if i = j then c else '-') (all '-'))
  in
  match kind with
  | Gate.Buf -> [ "1" ]
  | Gate.Not -> [ "0" ]
  | Gate.And -> [ all '1' ]
  | Gate.Nor -> [ all '0' ]
  | Gate.Nand -> one_hot '0'
  | Gate.Or -> one_hot '1'
  | Gate.Xor -> [ "01"; "10" ]
  | Gate.Xnor -> [ "00"; "11" ]

(* --- parser --- *)

type pending_names = { output : string; fanins : string list; mutable patterns : string list }

let parse_string ?name text =
  let lines = fold_continuations text in
  let model_name = ref (match name with Some n -> n | None -> "blif") in
  let inputs = ref [] and outputs = ref [] in
  let latches = ref [] in
  let names_blocks = ref [] in
  let pending : pending_names option ref = ref None in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let flush_pending () =
    match !pending with
    | None -> ()
    | Some p ->
      names_blocks := (p.output, p.fanins, List.rev p.patterns) :: !names_blocks;
      pending := None
  in
  let handle line =
    match tokens line with
    | [] -> ()
    | directive :: args when String.length directive > 0 && directive.[0] = '.' ->
      flush_pending ();
      (match (String.lowercase_ascii directive, args) with
      | ".model", [ m ] -> if name = None then model_name := m
      | ".model", _ -> fail ".model expects one name"
      | ".inputs", signals -> inputs := !inputs @ signals
      | ".outputs", signals -> outputs := !outputs @ signals
      | ".latch", (data :: out :: _rest) -> latches := (out, data) :: !latches
      | ".latch", _ -> fail ".latch expects input and output"
      | ".names", args when List.length args >= 1 ->
        let rec split_last acc = function
          | [ last ] -> (List.rev acc, last)
          | x :: rest -> split_last (x :: acc) rest
          | [] -> failwith "Blif_io: internal: .names with no signals"
        in
        let fanins, output = split_last [] args in
        pending := Some { output; fanins; patterns = [] }
      | ".names", _ -> fail ".names expects at least an output"
      | ".end", _ -> ()
      | other, _ -> fail (Printf.sprintf "unsupported BLIF directive %s" other))
    | row ->
      (match (!pending, row) with
      | Some p, [ pattern; "1" ] -> p.patterns <- pattern :: p.patterns
      | Some p, [ "1" ] when p.fanins = [] -> fail "constant functions are not supported"
      | Some _, [ _; "0" ] -> fail "off-set covers are not supported"
      | Some _, _ -> fail (Printf.sprintf "malformed cover row %S" line)
      | None, _ -> fail (Printf.sprintf "stray line %S" line))
  in
  List.iter handle lines;
  flush_pending ();
  match !error with
  | Some msg -> Error msg
  | None ->
    let builder = Netlist.Builder.create ~name:!model_name in
    (try
       List.iter (Netlist.Builder.add_input builder) !inputs;
       List.iter (fun (out, data) -> Netlist.Builder.add_dff builder out ~data) (List.rev !latches);
       List.iter
         (fun (output, fanins, patterns) ->
           let arity = List.length fanins in
           if arity = 0 then failwith (Printf.sprintf "constant output %s not supported" output)
           else
             match classify_cover { arity; rows = patterns } with
             | Some kind -> Netlist.Builder.add_gate builder output kind fanins
             | None ->
               failwith
                 (Printf.sprintf "cover of %s is not a supported gate shape" output))
         (List.rev !names_blocks);
       List.iter (Netlist.Builder.mark_output builder) !outputs;
       Netlist.Builder.finish builder
     with Failure msg | Invalid_argument msg -> Error msg)

let parse_file path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  let base = Filename.remove_extension (Filename.basename path) in
  parse_string ~name:base text

let to_string netlist =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf (Printf.sprintf ".model %s\n" (Netlist.name netlist));
  let inputs =
    List.filter_map
      (fun (s, def) -> match def with Netlist.Input -> Some s | Netlist.Dff _ | Netlist.Gate _ -> None)
      (Netlist.signals netlist)
  in
  if inputs <> [] then
    Buffer.add_string buf (Printf.sprintf ".inputs %s\n" (String.concat " " inputs));
  if Netlist.outputs netlist <> [] then
    Buffer.add_string buf
      (Printf.sprintf ".outputs %s\n" (String.concat " " (Netlist.outputs netlist)));
  List.iter
    (fun (signal, def) ->
      match def with
      | Netlist.Input -> ()
      | Netlist.Dff data -> Buffer.add_string buf (Printf.sprintf ".latch %s %s 2\n" data signal)
      | Netlist.Gate (kind, fanins) ->
        Buffer.add_string buf
          (Printf.sprintf ".names %s %s\n" (String.concat " " fanins) signal);
        List.iter
          (fun pattern -> Buffer.add_string buf (Printf.sprintf "%s 1\n" pattern))
          (cover_of_gate kind (List.length fanins)))
    (Netlist.signals netlist);
  Buffer.add_string buf ".end\n";
  Buffer.contents buf
