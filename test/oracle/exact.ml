module Graph = Lacr_retime.Graph
module Problem = Lacr_core.Problem
module Constraints = Lacr_retime.Constraints

type solution = {
  labels : int array;
  n_foa : int;
  n_f : int;
  explored : int;
}

let solve ?(range = 3) (problem : Problem.t) (cs : Constraints.t) =
  let g = problem.Problem.graph in
  let n = Graph.num_vertices g in
  if n > 24 then invalid_arg "Exact.solve: too many vertices for exhaustive search";
  let host = Graph.host g in
  (* Constraints indexed by the higher-numbered vertex so each can be
     checked as soon as both endpoints are assigned (assignment order
     is by vertex index). *)
  let by_latest = Array.make n [] in
  let s = cs.Constraints.system in
  for i = s.Constraints.m - 1 downto 0 do
    let a = s.Constraints.ca.(i) and b = s.Constraints.cb.(i) in
    let latest = max a b in
    if latest < n then
      by_latest.(latest) <-
        { Lacr_mcmf.Difference.a; b; bound = s.Constraints.cbound.(i) } :: by_latest.(latest)
  done;
  let labels = Array.make n 0 in
  let best = ref None in
  let explored = ref 0 in
  let better (foa, ffs) =
    match !best with
    | None -> true
    | Some (bfoa, bffs, _) -> foa < bfoa || (foa = bfoa && ffs < bffs)
  in
  let rec assign v =
    if v = n then begin
      incr explored;
      let n_foa = Problem.violations problem ~labels in
      let n_f = Problem.ff_count problem ~labels in
      if better (n_foa, n_f) then best := Some (n_foa, n_f, Array.copy labels)
    end
    else begin
      let candidates = if v = host then [ 0 ] else List.init ((2 * range) + 1) (fun i -> i - range) in
      List.iter
        (fun candidate ->
          labels.(v) <- candidate;
          let consistent =
            List.for_all
              (fun (c : Lacr_mcmf.Difference.constr) ->
                labels.(c.Lacr_mcmf.Difference.a) - labels.(c.Lacr_mcmf.Difference.b)
                <= c.Lacr_mcmf.Difference.bound)
              by_latest.(v)
          in
          if consistent then assign (v + 1))
        candidates;
      labels.(v) <- 0
    end
  in
  assign 0;
  match !best with
  | None -> None
  | Some (n_foa, n_f, labels) -> Some { labels; n_foa; n_f; explored = !explored }
