module Tilegraph = Lacr_tilegraph.Tilegraph
module Pool = Lacr_util.Pool
module Trace = Lacr_obs.Trace

type net = {
  source_cell : int;
  sink_cells : int array;
}

type routed_net = {
  net : net;
  segments : int list list;
  sink_paths : int list array;
  wirelength : float;
}

let default_passes = 2

(* Congestion weights of the initial pass and of the rip-up passes,
   and the per-pass decay of the PathFinder history term.  Rip-up
   passes price congestion harder so that nets leave the boundaries
   they overflowed. *)
let congestion_weight = 1.0
let reroute_weight = 4.0
let history_decay = 0.7

type result = {
  nets : routed_net array;
  usage : Maze.usage;
  total_wirelength : float;
  overflow : float;
  max_utilization : float;
  pass_overflow : float array;
}

let path_length tg path =
  let pitch_x, pitch_y = Tilegraph.cell_pitch tg in
  let nx, _ = Tilegraph.grid_dims tg in
  let rec go acc = function
    | a :: (b :: _ as rest) ->
      let step = if a / nx = b / nx then pitch_x else pitch_y in
      go (acc +. step) rest
    | [ _ ] | [] -> acc
  in
  go 0.0 path

let rec iter_steps f = function
  | a :: (b :: _ as rest) ->
    f a b;
    iter_steps f rest
  | [ _ ] | [] -> ()

let rec exists_step f = function
  | a :: (b :: _ as rest) -> f a b || exists_step f rest
  | [ _ ] | [] -> false

(* --- sink-path recovery over the segment union ------------------------- *)

(* Reusable int-indexed CSR workspace over the union cells of one
   net's routed segments.  Cells are compacted in first-appearance
   order (source first), so the structure — and the BFS tree built on
   it — is a pure function of the segment list.  The [stamp]/[id]
   maps are epoch-stamped over the full grid; everything else grows to
   the union size and is reused net after net. *)
type csr = {
  stamp : int array;  (* per grid cell: mapped when = cs_epoch *)
  id : int array;  (* per grid cell: compact id when mapped *)
  mutable cs_epoch : int;
  mutable cells : int array;  (* compact id -> grid cell *)
  mutable ncells : int;
  mutable pairs : int array;  (* flat (u, v) compact-id step pairs *)
  mutable npairs : int;
  mutable off : int array;  (* nc + 1 adjacency offsets *)
  mutable cursor : int array;
  mutable adj : int array;
  mutable parent : int array;  (* BFS tree, -1 = unreached *)
  mutable queue : int array;
}

let create_csr n =
  {
    stamp = Array.make n 0;
    id = Array.make n 0;
    cs_epoch = 0;
    cells = Array.make 64 0;
    ncells = 0;
    pairs = Array.make 128 0;
    npairs = 0;
    off = Array.make 65 0;
    cursor = Array.make 64 0;
    adj = Array.make 128 0;
    parent = Array.make 64 0;
    queue = Array.make 64 0;
  }

let ensure arr len needed =
  if needed <= Array.length arr then arr
  else begin
    let bigger = Array.make (max needed (2 * Array.length arr)) 0 in
    Array.blit arr 0 bigger 0 len;
    bigger
  end

(* Build the union CSR, run ONE BFS from [source], then walk the
   parent chain once per sink — replaces the per-sink Hashtbl BFS of
   the seed router.  A sink that is not connected to the union is
   structurally impossible for nets routed by [route_net] (terminal
   cells are distinct, so every terminal cell appears in a routed
   segment); it indicates corruption and raises {!Maze.Routing_error}
   under the sanitizer, else falls back to a fabricated direct link
   reported through [on_fallback]. *)
let recover_sink_paths csr ~on_fallback ~source ~sinks segments =
  csr.cs_epoch <- csr.cs_epoch + 1;
  let epoch = csr.cs_epoch in
  csr.ncells <- 0;
  csr.npairs <- 0;
  let map cell =
    if csr.stamp.(cell) = epoch then csr.id.(cell)
    else begin
      let compact = csr.ncells in
      csr.stamp.(cell) <- epoch;
      csr.id.(cell) <- compact;
      csr.cells <- ensure csr.cells compact (compact + 1);
      csr.cells.(compact) <- cell;
      csr.ncells <- compact + 1;
      compact
    end
  in
  let root = map source in
  List.iter
    (iter_steps (fun a b ->
         let ua = map a and ub = map b in
         csr.pairs <- ensure csr.pairs (2 * csr.npairs) ((2 * csr.npairs) + 2);
         csr.pairs.(2 * csr.npairs) <- ua;
         csr.pairs.((2 * csr.npairs) + 1) <- ub;
         csr.npairs <- csr.npairs + 1))
    segments;
  let nc = csr.ncells in
  csr.off <- ensure csr.off 0 (nc + 1);
  csr.cursor <- ensure csr.cursor 0 nc;
  Array.fill csr.off 0 (nc + 1) 0;
  for e = 0 to csr.npairs - 1 do
    let u = csr.pairs.(2 * e) and v = csr.pairs.((2 * e) + 1) in
    csr.off.(u) <- csr.off.(u) + 1;
    csr.off.(v) <- csr.off.(v) + 1
  done;
  let run = ref 0 in
  for i = 0 to nc - 1 do
    let deg = csr.off.(i) in
    csr.off.(i) <- !run;
    run := !run + deg
  done;
  csr.off.(nc) <- !run;
  csr.adj <- ensure csr.adj 0 !run;
  Array.blit csr.off 0 csr.cursor 0 nc;
  for e = 0 to csr.npairs - 1 do
    let u = csr.pairs.(2 * e) and v = csr.pairs.((2 * e) + 1) in
    csr.adj.(csr.cursor.(u)) <- v;
    csr.cursor.(u) <- csr.cursor.(u) + 1;
    csr.adj.(csr.cursor.(v)) <- u;
    csr.cursor.(v) <- csr.cursor.(v) + 1
  done;
  csr.parent <- ensure csr.parent 0 nc;
  csr.queue <- ensure csr.queue 0 (max 1 nc);
  Array.fill csr.parent 0 nc (-1);
  csr.parent.(root) <- root;
  csr.queue.(0) <- root;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = csr.queue.(!head) in
    incr head;
    for k = csr.off.(u) to csr.off.(u + 1) - 1 do
      let v = csr.adj.(k) in
      if csr.parent.(v) < 0 then begin
        csr.parent.(v) <- u;
        csr.queue.(!tail) <- v;
        incr tail
      end
    done
  done;
  Array.map
    (fun sink ->
      if sink = source then [ source ]
      else if csr.stamp.(sink) <> epoch || csr.parent.(csr.id.(sink)) < 0 then begin
        if Lacr_util.Sanitize.enabled () then
          raise
            (Maze.Routing_error
               { src = source; dst = sink; reason = "sink not connected to routed segments" });
        on_fallback ();
        [ source; sink ] (* defensive: direct logical link *)
      end
      else begin
        let rec back u acc = if u = root then acc else back csr.parent.(u) (u :: acc) in
        source :: List.map (fun compact -> csr.cells.(compact)) (back csr.id.(sink) [])
      end)
    sinks

let sink_paths_of_segments tg ?fallbacks ~source ~sinks segments =
  let csr = create_csr (Tilegraph.num_cells tg) in
  let on_fallback () = match fallbacks with Some c -> Trace.incr c | None -> () in
  recover_sink_paths csr ~on_fallback ~source ~sinks segments

(* --- per-net routing --------------------------------------------------- *)

(* A net's routing topology is invariant across rip-up passes:
   distinct terminal cells plus the Steiner tree edges snapped onto
   grid cells.  Building it once per net keeps the Steiner
   construction — and its allocation — out of the negotiation loop. *)
type topology = { t_edges : (int * int) array (* maze (src, dst) cell pairs, src <> dst *) }

let topology_of tg net =
  let terminals =
    Array.to_list (Array.append [| net.source_cell |] net.sink_cells)
    |> List.sort_uniq Int.compare
  in
  match terminals with
  | [] | [ _ ] -> { t_edges = [||] }
  | _ ->
    let term_arr = Array.of_list terminals in
    let centers = Array.map (Tilegraph.cell_center tg) term_arr in
    let tree = Steiner.build centers in
    (* Steiner points are snapped back onto grid cells. *)
    let cell_of_tree_point i =
      if i < Array.length term_arr then term_arr.(i)
      else Tilegraph.cell_of_point tg tree.Steiner.points.(i)
    in
    let edges =
      List.filter_map
        (fun (a, b) ->
          let ca = cell_of_tree_point a and cb = cell_of_tree_point b in
          if ca = cb then None else Some (ca, cb))
        tree.Steiner.edges
    in
    { t_edges = Array.of_list edges }

(* Route one net's tree edges in order, committing each edge's path to
   the shared usage as soon as it is routed, so later edges of the net
   price the earlier ones.  Sink paths are recovered once per net
   after negotiation settles, not on every pass. *)
let route_edges usage sc ~congestion_weight ~on_fallback topo =
  let segments = ref [] in
  for e = 0 to Array.length topo.t_edges - 1 do
    let ca, cb = topo.t_edges.(e) in
    let path = Maze.route usage sc ~congestion_weight ~src:ca ~dst:cb () in
    (match path with
    | [ _ ] -> on_fallback () (* degenerate: ca <> cb unreachable *)
    | _ -> Maze.add_path usage path);
    segments := path :: !segments
  done;
  List.rev !segments

(* --- negotiated schedule ---------------------------------------------- *)

let route_all ?(passes = default_passes) ?(pool = Pool.sequential) ?(trace = Trace.disabled) tg
    nets =
  Trace.with_span trace ~cat:"routing"
    ~attrs:
      [
        ("nets", Trace.Int (Array.length nets)); ("domains", Trace.Int (Pool.size pool));
      ]
    "route.all"
    (fun () ->
      let traced = Trace.enabled trace in
      let c_routed = Trace.counter trace "route.nets" in
      let c_rerouted = Trace.counter trace "route.reroutes" in
      let c_fallbacks = Trace.counter trace "route.fallbacks" in
      let on_fallback () = Trace.incr c_fallbacks in
      let usage = Maze.create tg in
      let cap = Maze.capacity usage in
      let n_nets = Array.length nets in
      (* Per-net topology, built once up front (deterministic per net,
         so the parallel fill is order-free). *)
      let topos = Array.make n_nets { t_edges = [||] } in
      Pool.parallel_for ~chunk:16 pool n_nets (fun i -> topos.(i) <- topology_of tg nets.(i));
      (* Working state of the negotiation: committed segments and
         wirelength per net.  The full [routed_net] records — with
         their per-sink paths — are only assembled after the schedule
         settles. *)
      let seg = Array.make n_nets [] in
      let wl = Array.make n_nets 0.0 in
      (* Negotiate the [pending] net indices (ascending) one at a time
         on the calling domain: rip the net's previous commit out (a
         no-op on its first route), then route it against the usage
         every earlier net has already committed to. *)
      let sc = Maze.create_scratch usage in
      let negotiate ~congestion_weight pending =
        Array.iter
          (fun i ->
            List.iter (Maze.remove_path usage) seg.(i);
            let s = route_edges usage sc ~congestion_weight ~on_fallback topos.(i) in
            seg.(i) <- s;
            wl.(i) <- List.fold_left (fun acc p -> acc +. path_length tg p) 0.0 s)
          pending
      in
      Trace.with_span trace ~cat:"routing" "route.initial" (fun () ->
          negotiate ~congestion_weight (Array.init n_nets (fun i -> i)));
      if traced then Trace.add c_routed n_nets;
      (* Rip-up and re-route nets that still cross overflowed
         boundaries.  Each pass first charges negotiated-congestion
         history, then re-routes against a checkpoint: a pass that
         would increase total overflow is reverted wholesale (history
         stays charged, so the next pass prices the conflict higher
         instead of replaying it) — the per-pass overflow trajectory
         is non-increasing by construction. *)
      let crosses_overflow i =
        List.exists (exists_step (fun a b -> Maze.demand usage a b > cap)) seg.(i)
      in
      let current = ref (Maze.overflow usage) in
      let trajectory = ref [ !current ] in
      for pass = 1 to passes do
        if !current > 0.0 then
          Trace.with_span trace ~cat:"routing"
            ~attrs:[ ("pass", Trace.Int pass) ]
            "route.ripup"
            (fun () ->
              Maze.charge_history usage ~decay:history_decay;
              let dirty = ref [] in
              for i = n_nets - 1 downto 0 do
                if crosses_overflow i then dirty := i :: !dirty
              done;
              let dirty = Array.of_list !dirty in
              if Array.length dirty > 0 then begin
                let ck = Maze.checkpoint usage in
                let saved = Array.map (fun i -> (seg.(i), wl.(i))) dirty in
                negotiate ~congestion_weight:reroute_weight dirty;
                if traced then Trace.add c_rerouted (Array.length dirty);
                let now = Maze.overflow usage in
                if now > !current +. 1e-9 then begin
                  Maze.restore usage ck;
                  Array.iteri
                    (fun j i ->
                      let s, w = saved.(j) in
                      seg.(i) <- s;
                      wl.(i) <- w)
                    dirty
                end
                else current := now
              end;
              if traced then Trace.span_attr trace "overflow" (Trace.Float !current);
              trajectory := !current :: !trajectory)
      done;
      if Lacr_util.Sanitize.enabled () then
        Maze.assert_demand_consistent usage
          ~segments:(Array.fold_left (fun acc s -> List.rev_append s acc) [] seg);
      (* The negotiation settled every segment; now — and only now —
         recover the per-sink source paths over each net's segment
         union.  Each net is independent, so the fill parallelizes
         with no effect on the result.  CSR workspaces are per worker
         slot, lazily built: each slot is only ever touched by the one
         domain occupying it (Pool.worker_slot), so initialization and
         reuse are race-free without locks. *)
      let csrs = Array.make Pool.max_slots None in
      let csr_for () =
        let slot = Pool.worker_slot () in
        match csrs.(slot) with
        | Some csr -> csr
        | None ->
          let csr = create_csr (Tilegraph.num_cells tg) in
          csrs.(slot) <- Some csr;
          csr
      in
      let routed =
        Array.map (fun net -> { net; segments = []; sink_paths = [||]; wirelength = 0.0 }) nets
      in
      Trace.with_span trace ~cat:"routing" "route.recover" (fun () ->
          Pool.parallel_for ~chunk:8 pool n_nets (fun i ->
              let net = nets.(i) in
              let sink_paths =
                recover_sink_paths (csr_for ()) ~on_fallback ~source:net.source_cell
                  ~sinks:net.sink_cells seg.(i)
              in
              routed.(i) <- { net; segments = seg.(i); sink_paths; wirelength = wl.(i) }));
      let total_wirelength = Array.fold_left (fun acc w -> acc +. w) 0.0 wl in
      let result =
        {
          nets = routed;
          usage;
          total_wirelength;
          overflow = Maze.overflow usage;
          max_utilization = Maze.max_utilization usage;
          pass_overflow = Array.of_list (List.rev !trajectory);
        }
      in
      if traced then begin
        Trace.span_attr trace "wirelength_mm" (Trace.Float total_wirelength);
        Trace.span_attr trace "overflow" (Trace.Float result.overflow)
      end;
      result)
