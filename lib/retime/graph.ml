type edge = { src : int; dst : int; weight : int }

type t = {
  delays : float array;
  edges : edge array;
  host : int;
  (* CSR (compressed sparse row) fanout view: edges grouped by source
     in original edge order; [csr_off] has n+1 entries, edge slots of
     vertex v are [csr_off.(v), csr_off.(v+1)).  The flat arrays are
     what the hot (W,D) loops walk — no list chasing, no pointer
     indirection, and safe to read from many domains at once. *)
  csr_off : int array;
  csr_dst : int array;
  csr_weight : int array;
}

let build delays edges host =
  let n = Array.length delays in
  let m = Array.length edges in
  let csr_off = Array.make (n + 1) 0 in
  Array.iter (fun e -> csr_off.(e.src + 1) <- csr_off.(e.src + 1) + 1) edges;
  for v = 1 to n do
    csr_off.(v) <- csr_off.(v) + csr_off.(v - 1)
  done;
  let csr_dst = Array.make m 0 and csr_weight = Array.make m 0 in
  let cursor = Array.copy csr_off in
  Array.iter
    (fun e ->
      let slot = cursor.(e.src) in
      cursor.(e.src) <- slot + 1;
      csr_dst.(slot) <- e.dst;
      csr_weight.(slot) <- e.weight)
    edges;
  if Lacr_util.Sanitize.enabled () then
    Lacr_util.Sanitize.check_csr ~invariant:"graph.csr" ~n ~m ~offsets:csr_off
      ~targets:csr_dst ~max_target:n;
  { delays; edges; host; csr_off; csr_dst; csr_weight }

let create ~delays ~edges ~host =
  let n = Array.length delays in
  if host < 0 || host >= n then invalid_arg "Graph.create: host out of range";
  Array.iteri
    (fun i d -> if d < 0.0 then invalid_arg (Printf.sprintf "Graph.create: negative delay at %d" i))
    delays;
  let check e =
    if e.src < 0 || e.src >= n || e.dst < 0 || e.dst >= n then
      invalid_arg "Graph.create: edge endpoint out of range";
    if e.weight < 0 then invalid_arg "Graph.create: negative edge weight"
  in
  List.iter check edges;
  build delays (Array.of_list edges) host

let of_seqview (view : Lacr_netlist.Seqview.t) =
  let n_units = Lacr_netlist.Seqview.num_units view in
  let host = n_units in
  let delays = Array.make (n_units + 1) 0.0 in
  Array.iteri (fun i (u : Lacr_netlist.Seqview.unit_info) -> delays.(i) <- u.Lacr_netlist.Seqview.delay) view.Lacr_netlist.Seqview.units;
  let base =
    Array.to_list view.Lacr_netlist.Seqview.edges
    |> List.map (fun (e : Lacr_netlist.Seqview.edge) ->
           { src = e.Lacr_netlist.Seqview.src; dst = e.Lacr_netlist.Seqview.dst; weight = e.Lacr_netlist.Seqview.weight })
  in
  create ~delays ~edges:base ~host

let io_pin_constraints (view : Lacr_netlist.Seqview.t) ~host =
  let pin v =
    [
      { Lacr_mcmf.Difference.a = v; b = host; bound = 0 };
      { Lacr_mcmf.Difference.a = host; b = v; bound = 0 };
    ]
  in
  List.concat_map pin
    (view.Lacr_netlist.Seqview.primary_inputs @ view.Lacr_netlist.Seqview.primary_outputs)

let num_vertices t = Array.length t.delays
let num_edges t = Array.length t.edges
let host t = t.host
let delay t v = t.delays.(v)
let delays t = t.delays
let edges t = t.edges
let csr_offsets t = t.csr_off
let csr_dst t = t.csr_dst
let csr_weight t = t.csr_weight

let total_ffs t = Array.fold_left (fun acc e -> acc + e.weight) 0 t.edges

let retimed_weight _t r e = e.weight + r.(e.dst) - r.(e.src)

let is_legal t r =
  Array.length r = num_vertices t
  && r.(t.host) = 0
  && Array.for_all (fun e -> retimed_weight t r e >= 0) t.edges

let retime t r =
  if Array.length r <> num_vertices t then Error "retime: labelling arity mismatch"
  else if r.(t.host) <> 0 then Error "retime: host label must be 0"
  else begin
    let bad = ref None in
    let reweigh e =
      let w = retimed_weight t r e in
      if w < 0 && Option.is_none !bad then bad := Some e;
      { e with weight = w }
    in
    let new_edges = Array.map reweigh t.edges in
    match !bad with
    | Some e -> Error (Printf.sprintf "retime: negative weight on edge %d -> %d" e.src e.dst)
    | None -> Ok (build t.delays new_edges t.host)
  end

(* Longest zero-weight path, vertex delays inclusive, via topological
   order of the zero-weight subgraph. *)
let clock_period t =
  let n = num_vertices t in
  let indeg = Array.make n 0 in
  let zero_out = Array.make n [] in
  let record e =
    if e.weight = 0 then begin
      indeg.(e.dst) <- indeg.(e.dst) + 1;
      zero_out.(e.src) <- e.dst :: zero_out.(e.src)
    end
  in
  Array.iter record t.edges;
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then Queue.add v queue
  done;
  let arrival = Array.copy t.delays in
  let processed = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    incr processed;
    let relax w =
      if arrival.(v) +. t.delays.(w) > arrival.(w) then arrival.(w) <- arrival.(v) +. t.delays.(w);
      indeg.(w) <- indeg.(w) - 1;
      if indeg.(w) = 0 then Queue.add w queue
    in
    List.iter relax zero_out.(v)
  done;
  if !processed < n then failwith "Graph.clock_period: zero-weight cycle";
  Array.fold_left max 0.0 arrival
