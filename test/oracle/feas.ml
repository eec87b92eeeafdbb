module Graph = Lacr_retime.Graph
module Paths = Lacr_retime.Paths
module Feasibility = Lacr_retime.Feasibility

(* Arrival times on the retimed graph without materializing it: edge
   weights are read as w(e) + r(dst) - r(src), walked directly on the
   graph's CSR fanout view with an int-array FIFO — no per-vertex
   adjacency lists, no Queue boxing.  The result is the unique
   longest-path fixed point over the zero-weight subgraph, so the
   traversal order cannot change it. *)
let arrivals g r =
  let n = Graph.num_vertices g in
  let off = Graph.csr_offsets g
  and dst = Graph.csr_dst g
  and wgt = Graph.csr_weight g
  and delays = Graph.delays g in
  let indeg = Array.make n 0 in
  for u = 0 to n - 1 do
    let ru = r.(u) in
    for i = off.(u) to off.(u + 1) - 1 do
      let v = dst.(i) in
      if wgt.(i) + r.(v) - ru = 0 then indeg.(v) <- indeg.(v) + 1
    done
  done;
  let queue = Array.make n 0 in
  let head = ref 0 and tail = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      queue.(!tail) <- v;
      incr tail
    end
  done;
  let arrival = Array.init n (fun v -> delays.(v)) in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let ru = r.(u) and au = arrival.(u) in
    for i = off.(u) to off.(u + 1) - 1 do
      let v = dst.(i) in
      if wgt.(i) + r.(v) - ru = 0 then begin
        if au +. delays.(v) > arrival.(v) then arrival.(v) <- au +. delays.(v);
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then begin
          queue.(!tail) <- v;
          incr tail
        end
      end
    done
  done;
  if !tail < n then None else Some arrival

let feasible g ~period =
  let n = Graph.num_vertices g in
  let r = Array.make n 0 in
  let rec iterate k =
    if k > n then None
    else
      match arrivals g r with
      | None -> None (* zero-weight cycle: illegal intermediate state *)
      | Some arrival ->
        let violated = ref false in
        for v = 0 to n - 1 do
          if arrival.(v) > period +. 1e-9 then begin
            violated := true;
            r.(v) <- r.(v) + 1
          end
        done;
        if not !violated then begin
          let base = r.(Graph.host g) in
          Some (Array.map (fun x -> x - base) r)
        end
        else iterate (k + 1)
  in
  iterate 0

let min_period g wd =
  let bound = Paths.cycle_ratio_lower_bound g in
  let candidates = Paths.distinct_delays wd ~lo:(bound -. 1e-9) ~hi:infinity in
  let n_cand = Array.length candidates in
  if n_cand = 0 then
    {
      Feasibility.period = Graph.clock_period g;
      labels = Array.make (Graph.num_vertices g) 0;
    }
  else begin
    let best = ref None in
    let rec search lo hi =
      if lo >= hi then ()
      else begin
        let mid = (lo + hi) / 2 in
        match feasible g ~period:candidates.(mid) with
        | Some labels ->
          best := Some (candidates.(mid), labels);
          search lo mid
        | None -> search (mid + 1) hi
      end
    in
    (match feasible g ~period:candidates.(n_cand - 1) with
    | Some labels -> best := Some (candidates.(n_cand - 1), labels)
    | None -> best := Some (Graph.clock_period g, Array.make (Graph.num_vertices g) 0));
    search 0 (n_cand - 1);
    match !best with
    | Some (period, labels) -> { Feasibility.period; labels }
    | None -> failwith "Feas.min_period: internal: no candidate period survived"
  end
