let sub_problem p cells =
  let n = Array.length cells in
  let index = Hashtbl.create n in
  Array.iteri (fun local global -> Hashtbl.add index global local) cells;
  let areas = Array.map (fun c -> p.Fm.areas.(c)) cells in
  let keep_net net =
    let local = Array.to_list net |> List.filter_map (Hashtbl.find_opt index) in
    match local with
    | [] | [ _ ] -> None
    | pins -> Some (Array.of_list pins)
  in
  let nets = Array.to_list p.Fm.nets |> List.filter_map keep_net |> Array.of_list in
  { Fm.n_cells = n; areas; nets }

let partition rng p ~k =
  if k <= 0 then invalid_arg "Kway.partition: k must be positive";
  (match Fm.validate p with Ok () -> () | Error msg -> invalid_arg ("Kway.partition: " ^ msg));
  let labels = Array.make p.Fm.n_cells 0 in
  (* Split [cells] into [k] blocks labelled [base .. base+k-1]. *)
  let rec split cells k base =
    if k = 1 then Array.iter (fun c -> labels.(c) <- base) cells
    else begin
      let sub = sub_problem p cells in
      let side = Fm.bipartition rng sub in
      let left = ref [] and right = ref [] in
      Array.iteri
        (fun local global -> if side.(local) = 0 then left := global :: !left else right := global :: !right)
        cells;
      let k_left = (k + 1) / 2 in
      let left = Array.of_list (List.rev !left) and right = Array.of_list (List.rev !right) in
      (* A degenerate empty side (tiny inputs) falls back to a plain
         round-robin split so every block label stays populated. *)
      if Array.length left = 0 || Array.length right = 0 then begin
        Array.iteri (fun i c -> labels.(c) <- base + (i mod k)) cells
      end
      else begin
        split left k_left base;
        split right (k - k_left) (base + k_left)
      end
    end
  in
  split (Array.init p.Fm.n_cells (fun i -> i)) k 0;
  labels

let block_areas p labels ~k =
  let areas = Array.make k 0.0 in
  Array.iteri (fun c b -> areas.(b) <- areas.(b) +. p.Fm.areas.(c)) labels;
  areas

let cut_nets p labels =
  let spans net =
    match Array.to_list net with
    | [] -> false
    | pin :: rest -> List.exists (fun c -> labels.(c) <> labels.(pin)) rest
  in
  Array.fold_left (fun acc net -> if spans net then acc + 1 else acc) 0 p.Fm.nets

let of_seqview (view : Lacr_netlist.Seqview.t) =
  let n = Lacr_netlist.Seqview.num_units view in
  let areas =
    Array.map
      (fun (u : Lacr_netlist.Seqview.unit_info) ->
        if u.Lacr_netlist.Seqview.area > 0.0 then u.Lacr_netlist.Seqview.area else 0.5)
      view.Lacr_netlist.Seqview.units
  in
  let nets =
    Array.map
      (fun (e : Lacr_netlist.Seqview.edge) -> [| e.Lacr_netlist.Seqview.src; e.Lacr_netlist.Seqview.dst |])
      view.Lacr_netlist.Seqview.edges
  in
  { Fm.n_cells = n; areas; nets }
