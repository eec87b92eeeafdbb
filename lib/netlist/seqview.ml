type unit_kind =
  | Primary_input
  | Primary_output
  | Logic of Gate.kind

type unit_info = {
  uname : string;
  kind : unit_kind;
  delay : float;
  area : float;
  fanin : int;
}

type edge = { src : int; dst : int; weight : int }

type t = {
  circuit : string;
  units : unit_info array;
  edges : edge array;
  primary_inputs : int list;
  primary_outputs : int list;
}

exception Build_error of string

(* Walk a signal backwards through flip-flops to its combinational (or
   primary-input) driver, counting the flip-flops traversed.  The
   cycle budget is passed in by the caller: [Netlist.num_signals]
   walks the signal list, and recounting it per fan-in connection
   turns view construction quadratic (minutes at 10^5 units). *)
let trace_driver netlist ~budget signal =
  let rec walk signal ffs steps =
    if steps < 0 then raise (Build_error "flip-flop-only cycle in netlist")
    else
      match Netlist.definition netlist signal with
      | Netlist.Input | Netlist.Gate _ -> (signal, ffs)
      | Netlist.Dff data -> walk data (ffs + 1) (steps - 1)
  in
  walk signal 0 budget

let of_netlist netlist =
  try
    let unit_ids = Hashtbl.create 64 in
    let rev_units = ref [] in
    let n_units = ref 0 in
    let add_unit name info =
      Hashtbl.add unit_ids name !n_units;
      rev_units := info :: !rev_units;
      let id = !n_units in
      incr n_units;
      id
    in
    let pis = ref [] and pos = ref [] in
    let register (signal, def) =
      match def with
      | Netlist.Input ->
        let id =
          add_unit signal
            { uname = signal; kind = Primary_input; delay = 0.0; area = 0.0; fanin = 0 }
        in
        pis := id :: !pis
      | Netlist.Gate (kind, fanins) ->
        let n = List.length fanins in
        ignore
          (add_unit signal
             {
               uname = signal;
               kind = Logic kind;
               delay = Gate.delay kind ~fanin:n;
               area = Gate.area kind ~fanin:n;
               fanin = n;
             })
      | Netlist.Dff _ -> ()
    in
    List.iter register (Netlist.signals netlist);
    let edges = ref [] in
    let budget = Netlist.num_signals netlist in
    let add_edge src dst weight = edges := { src; dst; weight } :: !edges in
    let connect dst_id fanin_signal =
      let driver, ffs = trace_driver netlist ~budget fanin_signal in
      match Hashtbl.find_opt unit_ids driver with
      | Some src_id -> add_edge src_id dst_id ffs
      | None -> raise (Build_error (Printf.sprintf "driver %s has no unit" driver))
    in
    let wire (signal, def) =
      match def with
      | Netlist.Input | Netlist.Dff _ -> ()
      | Netlist.Gate (_, fanins) ->
        let dst_id = Hashtbl.find unit_ids signal in
        List.iter (connect dst_id) fanins
    in
    List.iter wire (Netlist.signals netlist);
    let add_po out_signal =
      let id =
        add_unit (out_signal ^ "_po")
          { uname = out_signal ^ "_po"; kind = Primary_output; delay = 0.0; area = 0.0; fanin = 1 }
      in
      pos := id :: !pos;
      connect id out_signal
    in
    List.iter add_po (Netlist.outputs netlist);
    let view =
      {
        circuit = Netlist.name netlist;
        units = Array.of_list (List.rev !rev_units);
        edges = Array.of_list (List.rev !edges);
        primary_inputs = List.rev !pis;
        primary_outputs = List.rev !pos;
      }
    in
    Ok view
  with Build_error msg -> Error msg

let num_units t = Array.length t.units
let num_edges t = Array.length t.edges

let total_ffs t = Array.fold_left (fun acc e -> acc + e.weight) 0 t.edges

let unit_name t u = t.units.(u).uname

let degree_counts t =
  let n = num_units t in
  let out_deg = Array.make n 0 and in_deg = Array.make n 0 in
  let count e =
    out_deg.(e.src) <- out_deg.(e.src) + 1;
    in_deg.(e.dst) <- in_deg.(e.dst) + 1
  in
  Array.iter count t.edges;
  (in_deg, out_deg)

let max_fanin t =
  let in_deg, _ = degree_counts t in
  Array.fold_left max 0 in_deg

let max_fanout t =
  let _, out_deg = degree_counts t in
  Array.fold_left max 0 out_deg

(* Zero-weight cycle detection: restrict to weight-0 edges and look for
   a cycle with iterative DFS (three-colour marking). *)
let has_combinational_cycle t =
  let n = num_units t in
  let adj = Array.make n [] in
  let record e = if e.weight = 0 then adj.(e.src) <- e.dst :: adj.(e.src) in
  Array.iter record t.edges;
  let state = Array.make n 0 in
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let found = ref false in
  let rec visit v =
    if not !found then begin
      state.(v) <- 1;
      let step w =
        if state.(w) = 1 then found := true else if state.(w) = 0 then visit w
      in
      List.iter step adj.(v);
      state.(v) <- 2
    end
  in
  for v = 0 to n - 1 do
    if state.(v) = 0 && not !found then visit v
  done;
  !found
