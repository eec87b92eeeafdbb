module Graph = Lacr_retime.Graph

type t = {
  period : float;
  arrival : float array;
  required : float array;
  slack : float array;
}

(* Topological order of the zero-weight subgraph under a labelling. *)
let topo_zero g labels =
  let n = Graph.num_vertices g in
  let indeg = Array.make n 0 in
  let zero_out = Array.make n [] in
  Array.iter
    (fun (e : Graph.edge) ->
      if Graph.retimed_weight g labels e = 0 then begin
        indeg.(e.Graph.dst) <- indeg.(e.Graph.dst) + 1;
        zero_out.(e.Graph.src) <- e.Graph.dst :: zero_out.(e.Graph.src)
      end)
    (Graph.edges g);
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let order = Array.make n 0 in
  let filled = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order.(!filled) <- v;
    incr filled;
    List.iter
      (fun w ->
        indeg.(w) <- indeg.(w) - 1;
        if indeg.(w) = 0 then Queue.add w queue)
      zero_out.(v)
  done;
  if !filled < n then None else Some (order, zero_out)

let identity_labels g = Array.make (Graph.num_vertices g) 0

let analyze ?labels g ~period =
  let labels = match labels with Some l -> l | None -> identity_labels g in
  match topo_zero g labels with
  | None -> Error "Timing.analyze: zero-weight cycle"
  | Some (order, zero_out) ->
    let n = Graph.num_vertices g in
    let arrival = Array.init n (Graph.delay g) in
    Array.iter
      (fun v ->
        List.iter
          (fun w ->
            let cand = arrival.(v) +. Graph.delay g w in
            if cand > arrival.(w) then arrival.(w) <- cand)
          zero_out.(v))
      order;
    (* Required times: backward pass; a vertex with no zero-weight
       fan-out must settle by the period. *)
    let required = Array.make n period in
    for i = n - 1 downto 0 do
      let v = order.(i) in
      List.iter
        (fun w ->
          let cand = required.(w) -. Graph.delay g w in
          if cand < required.(v) then required.(v) <- cand)
        zero_out.(v)
    done;
    let slack = Array.init n (fun v -> required.(v) -. arrival.(v)) in
    Ok { period; arrival; required; slack }

let worst_slack t = Array.fold_left min infinity t.slack

let meets_period t = worst_slack t >= -1e-9

let critical_path ?labels g =
  let labels = match labels with Some l -> l | None -> identity_labels g in
  match topo_zero g labels with
  | None -> Error "Timing.critical_path: zero-weight cycle"
  | Some (order, zero_out) ->
    let n = Graph.num_vertices g in
    let arrival = Array.init n (Graph.delay g) in
    let pred = Array.make n (-1) in
    Array.iter
      (fun v ->
        List.iter
          (fun w ->
            let cand = arrival.(v) +. Graph.delay g w in
            if cand > arrival.(w) then begin
              arrival.(w) <- cand;
              pred.(w) <- v
            end)
          zero_out.(v))
      order;
    let sink = ref 0 in
    for v = 1 to n - 1 do
      if arrival.(v) > arrival.(!sink) then sink := v
    done;
    let rec walk v acc = if v < 0 then acc else walk pred.(v) (v :: acc) in
    Ok (walk !sink [])

let pp_path g fmt path =
  let pp_vertex v = Format.fprintf fmt "%d(%.2f)" v (Graph.delay g v) in
  let rec go = function
    | [] -> ()
    | [ v ] -> pp_vertex v
    | v :: rest ->
      pp_vertex v;
      Format.fprintf fmt " -> ";
      go rest
  in
  go path
