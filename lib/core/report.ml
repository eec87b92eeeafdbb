module Table = Lacr_util.Table
module Tilegraph = Lacr_tilegraph.Tilegraph
module Occupancy = Lacr_tilegraph.Occupancy

type row = {
  circuit : string;
  t_clk : float;
  t_init : float;
  ma_n_foa : int;
  ma_n_f : int;
  ma_n_fn : int;
  ma_exec : float;
  lac_n_foa : int;
  lac_n_foa_second : int option;
  lac_n_f : int;
  lac_n_fn : int;
  lac_n_wr : int;
  lac_exec : float;
  decrease_pct : float option;
  second_error : string option;
}

let row_of_run ~name (run : Planner.run) =
  let ma = run.Planner.minarea and lac = run.Planner.lac in
  let second, second_error =
    match run.Planner.second with
    | Some (Ok { Planner.lac2 = Ok outcome; _ }) -> (Some outcome.Lac.n_foa, None)
    | Some (Ok { Planner.lac2 = Error msg; _ }) -> (None, Some msg)
    | Some (Error msg) -> (None, Some msg)
    | None -> (None, None)
  in
  let decrease_pct =
    if ma.Lac.n_foa = 0 then None
    else
      Some
        (100.0
        *. float_of_int (ma.Lac.n_foa - lac.Lac.n_foa)
        /. float_of_int ma.Lac.n_foa)
  in
  {
    circuit = name;
    t_clk = run.Planner.t_clk;
    t_init = run.Planner.t_init;
    ma_n_foa = ma.Lac.n_foa;
    ma_n_f = ma.Lac.n_f;
    ma_n_fn = ma.Lac.n_fn;
    ma_exec = ma.Lac.exec_seconds;
    lac_n_foa = lac.Lac.n_foa;
    lac_n_foa_second = second;
    lac_n_f = lac.Lac.n_f;
    lac_n_fn = lac.Lac.n_fn;
    lac_n_wr = lac.Lac.n_wr;
    lac_exec = lac.Lac.exec_seconds;
    decrease_pct;
    second_error;
  }

let average_decrease rows =
  let vals = List.filter_map (fun r -> r.decrease_pct) rows in
  Lacr_util.Stats.mean vals

let interconnect_ff_fraction rows =
  let fractions =
    List.filter_map
      (fun r ->
        if r.lac_n_f > 0 then Some (float_of_int r.lac_n_fn /. float_of_int r.lac_n_f)
        else None)
      rows
  in
  (Lacr_util.Stats.mean fractions, Lacr_util.Stats.maximum fractions)

let render_table1 rows =
  let open Table in
  let t =
    create
      [
        ("circuit", Left);
        ("Tclk(ns)", Right);
        ("Tinit(ns)", Right);
        ("MA:N_FOA", Right);
        ("MA:N_F", Right);
        ("MA:N_FN", Right);
        ("MA:Texec(s)", Right);
        ("LAC:N_FOA", Right);
        ("LAC:N_F", Right);
        ("LAC:N_FN", Right);
        ("LAC:N_wr", Right);
        ("LAC:Texec(s)", Right);
        ("N_FOA Decr.", Right);
      ]
  in
  let fmt_foa r =
    match r.lac_n_foa_second with
    | Some second when r.lac_n_foa > 0 -> Printf.sprintf "%d (%d)" r.lac_n_foa second
    | Some _ | None -> string_of_int r.lac_n_foa
  in
  let fmt_decr r =
    match r.decrease_pct with
    | None -> "N/A"
    | Some pct -> Printf.sprintf "%.0f%%" pct
  in
  List.iter
    (fun r ->
      add_row t
        [
          r.circuit;
          Printf.sprintf "%.2f" r.t_clk;
          Printf.sprintf "%.2f" r.t_init;
          string_of_int r.ma_n_foa;
          string_of_int r.ma_n_f;
          string_of_int r.ma_n_fn;
          Printf.sprintf "%.2f" r.ma_exec;
          fmt_foa r;
          string_of_int r.lac_n_f;
          string_of_int r.lac_n_fn;
          string_of_int r.lac_n_wr;
          Printf.sprintf "%.2f" r.lac_exec;
          fmt_decr r;
        ])
    rows;
  add_separator t;
  add_row t
    [
      "Average"; ""; ""; ""; ""; ""; ""; ""; ""; ""; ""; "";
      Printf.sprintf "%.0f%%" (average_decrease rows);
    ];
  let notes =
    List.filter_map
      (fun r ->
        match r.second_error with
        | Some msg -> Some (Printf.sprintf "  note: %s: second iteration failed: %s" r.circuit msg)
        | None -> None)
      rows
  in
  match notes with
  | [] -> render t
  | _ -> render t ^ "\n" ^ String.concat "\n" notes ^ "\n"

let render_flow_figure () =
  String.concat "\n"
    [
      "  Figure 1: Interconnect Planning in the Design Flow";
      "";
      "   RT or higher level design";
      "            |";
      "            v";
      "     [ Logic Synthesis ]";
      "            |                          Physical Planning";
      "            v                    .--------------------------.";
      "     [ Floorplanning ] <-------- |  Interconnect Planning   |";
      "            |                    |   1. Global Routing      |";
      "            '------------------> |   2. Repeater Planning   |";
      "                                 |   3. Retiming & Flipflop |";
      "                                 |      Placement (LAC)     |";
      "                                 '--------------------------'";
      "";
    ]

let render_tile_figure (inst : Build.instance) =
  let tg = inst.Build.tilegraph in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "  Figure 2: tile graph for %s (%c = soft block, # = hard block, . = channel/dead)\n\n"
       inst.Build.circuit 'a');
  Buffer.add_string buf (Tilegraph.render tg);
  Buffer.add_string buf "\n  Tile capacities (FF-equivalents, after repeater insertion):\n";
  Array.iteri
    (fun i tile ->
      let kind =
        match tile.Tilegraph.kind with
        | Tilegraph.Channel -> "channel"
        | Tilegraph.Hard_cell b -> Printf.sprintf "hard(b%d)" b
        | Tilegraph.Soft_merged b -> Printf.sprintf "soft(b%d)" b
      in
      match tile.Tilegraph.kind with
      | Tilegraph.Soft_merged _ ->
        Buffer.add_string buf
          (Printf.sprintf "    tile %3d %-10s capacity %7.1f remaining %7.1f\n" i kind
             tile.Tilegraph.capacity
             (Occupancy.remaining inst.Build.occupancy i))
      | Tilegraph.Channel | Tilegraph.Hard_cell _ -> ())
    (Tilegraph.tiles tg);
  Buffer.contents buf

let csv_header =
  [
    "circuit"; "t_clk_ns"; "t_init_ns"; "ma_n_foa"; "ma_n_f"; "ma_n_fn"; "ma_exec_s";
    "lac_n_foa"; "lac_n_foa_2nd"; "lac_n_f"; "lac_n_fn"; "lac_n_wr"; "lac_exec_s";
    "decrease_pct"; "second_error";
  ]

let csv_row r =
  [
    r.circuit;
    Printf.sprintf "%.3f" r.t_clk;
    Printf.sprintf "%.3f" r.t_init;
    string_of_int r.ma_n_foa;
    string_of_int r.ma_n_f;
    string_of_int r.ma_n_fn;
    Printf.sprintf "%.3f" r.ma_exec;
    string_of_int r.lac_n_foa;
    (match r.lac_n_foa_second with Some s -> string_of_int s | None -> "");
    string_of_int r.lac_n_f;
    string_of_int r.lac_n_fn;
    string_of_int r.lac_n_wr;
    Printf.sprintf "%.3f" r.lac_exec;
    (match r.decrease_pct with Some p -> Printf.sprintf "%.1f" p | None -> "");
    (match r.second_error with Some msg -> msg | None -> "");
  ]

(* --- observability summary --- *)

let render_trace_summary trace =
  let buf = Buffer.create 1024 in
  let spans = Lacr_obs.Trace.span_summary ~max_depth:2 trace in
  if not (List.is_empty spans) then begin
    let open Table in
    let t = create [ ("span", Left); ("count", Right); ("total(ms)", Right) ] in
    List.iter
      (fun (depth, name, count, total_s) ->
        add_row t
          [
            String.make (2 * depth) ' ' ^ name;
            string_of_int count;
            Printf.sprintf "%.2f" (1000.0 *. total_s);
          ])
      spans;
    Buffer.add_string buf (render t)
  end;
  let counters = Lacr_obs.Trace.counter_totals trace in
  if not (List.is_empty counters) then begin
    let open Table in
    let t = create [ ("counter", Left); ("total", Right) ] in
    List.iter (fun (name, total) -> add_row t [ name; string_of_int total ]) counters;
    if Buffer.length buf > 0 then Buffer.add_char buf '\n';
    Buffer.add_string buf (render t)
  end;
  let histograms = Lacr_obs.Trace.histogram_totals trace in
  if not (List.is_empty histograms) then begin
    let open Table in
    let t = create [ ("histogram", Left); ("bucket", Right); ("count", Right) ] in
    List.iter
      (fun (name, bounds, counts) ->
        Array.iteri
          (fun i count ->
            let bucket =
              if i < Array.length bounds then Printf.sprintf "<=%d" bounds.(i) else "overflow"
            in
            add_row t [ (if i = 0 then name else ""); bucket; string_of_int count ])
          counts)
      histograms;
    if Buffer.length buf > 0 then Buffer.add_char buf '\n';
    Buffer.add_string buf (render t)
  end;
  Buffer.contents buf
