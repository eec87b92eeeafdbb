(* The constraint system lives in flat parallel arrays ([system]) from
   the moment it is generated.  Both backends enumerate it
   graph-direct through the [Paths] sweep passes, and the emitters
   below write the exact sequence the seed's list assembly produced —
   header (extra, then edge constraints in edge-array order), then the
   period part (unpruned: sources descending with targets descending
   inside a source; pruned: targets descending with each target's kept
   pairs in reverse consider order) — so the flat pipeline is
   bit-identical to the historical list pipeline for every backend,
   period, pool size and --domains.  The list pipeline itself is kept
   below, verbatim, as the reference implementation ([reference_list])
   that the equivalence tests, the verify-constraints CLI check and
   bench section U compare against. *)

type system = {
  ca : int array;
  cb : int array;
  cbound : int array;
  m : int;
}

type t = {
  period : float;
  system : system;
  n_edge : int;
  n_period : int;
}

type compiled = system

let epsilon = 1e-9

let system_bytes s =
  8 * (Array.length s.ca + Array.length s.cb + Array.length s.cbound)

let to_list t =
  let s = t.system in
  let acc = ref [] in
  for i = s.m - 1 downto 0 do
    acc :=
      { Lacr_mcmf.Difference.a = s.ca.(i); b = s.cb.(i); bound = s.cbound.(i) } :: !acc
  done;
  !acc

let satisfied_by t r =
  let s = t.system in
  Lacr_mcmf.Difference.check_arrays ~a:s.ca ~b:s.cb ~bound:s.cbound ~m:s.m r

(* --- reference list pipeline (seed semantics, for equivalence checks) --- *)

let edge_constraints g =
  Array.fold_right
    (fun (e : Graph.edge) acc ->
      { Lacr_mcmf.Difference.a = e.Graph.src; b = e.Graph.dst; bound = e.Graph.weight } :: acc)
    (Graph.edges g) []

(* Rows are scanned in parallel (each source u fills its own slot) and
   folded back in source order, reproducing exactly the list the
   sequential prepend-as-you-go scan builds.  The streamed arm does
   not read the frontier: it re-enumerates every violating pair
   directly from the graph ([Paths.candidate_rows]), so the emitted
   list is the dense enumeration bit for bit at every period. *)
let period_constraints ?(pool = Lacr_util.Pool.sequential) g (wd : Paths.wd) ~period =
  let n = Paths.num_vertices wd in
  let rows = Array.make n [] in
  (match wd with
  | Paths.Dense dn ->
    Lacr_util.Pool.parallel_for pool n (fun u ->
        let wrow = dn.Paths.w.(u) and drow = dn.Paths.d.(u) in
        let acc = ref [] in
        for v = n - 1 downto 0 do
          (* Self pairs carry W(u,u) = 0, so a too-slow vertex produces the
             infeasible bound -1; other self constraints are trivial and
             skipped. *)
          if wrow.(v) <> max_int && drow.(v) > period +. epsilon && (u <> v || wrow.(v) = 0)
          then acc := { Lacr_mcmf.Difference.a = u; b = v; bound = wrow.(v) - 1 } :: !acc
        done;
        rows.(u) <- !acc)
  | Paths.Streamed _ ->
    let pr = Paths.candidate_rows ~pool g ~period in
    Array.iteri
      (fun u row ->
        rows.(u) <-
          Array.fold_right
            (fun (v, wuv) acc -> { Lacr_mcmf.Difference.a = u; b = v; bound = wuv - 1 } :: acc)
            row [])
      pr.Paths.rows);
  Array.fold_left (fun acc row -> List.rev_append row acc) [] rows

(* Per-source dominance pruning (Maheshwari-Sapatnekar flavour): a
   period constraint r(u) - r(v) <= W(u,v) - 1 is implied by a kept
   constraint r(u) - r(x) <= W(u,x) - 1 together with the edge-derived
   bound r(x) - r(v) <= W(x,v) whenever
   W(u,x) + W(x,v) <= W(u,v).  Scanning targets by ascending W keeps
   the retained set small (typically the W-frontier of each source). *)
let pruned_period_constraints_dense ?(pool = Lacr_util.Pool.sequential) (dn : Paths.dense)
    ~period =
  let n = Array.length dn.Paths.w in
  let survivors = Array.make n [] in
  Lacr_util.Pool.parallel_for pool n (fun u ->
      let wrow = dn.Paths.w.(u) and drow = dn.Paths.d.(u) in
      let candidates = ref [] in
      for v = 0 to n - 1 do
        if wrow.(v) <> max_int && drow.(v) > period +. epsilon && (u <> v || wrow.(v) = 0) then
          candidates := v :: !candidates
      done;
      let sorted = List.sort (fun a b -> Int.compare wrow.(a) wrow.(b)) !candidates in
      let kept = ref [] in
      let consider v =
        let implied =
          List.exists
            (fun x ->
              let wxv = dn.Paths.w.(x).(v) in
              wxv <> max_int && wrow.(x) + wxv <= wrow.(v))
            !kept
        in
        if not implied then kept := v :: !kept
      in
      List.iter consider sorted;
      survivors.(u) <- !kept);
  (* Target-side pass over the survivors: for fixed v (scanning sources
     by ascending W(u,v)), drop (u, v) when a kept (x, v) gives
     W(u,x) + W(x,v) <= W(u,v). *)
  let by_target = Array.make n [] in
  Array.iteri (fun u vs -> List.iter (fun v -> by_target.(v) <- u :: by_target.(v)) vs) survivors;
  let acc = ref [] in
  for v = 0 to n - 1 do
    let sorted =
      List.sort
        (fun u1 u2 -> Int.compare dn.Paths.w.(u1).(v) dn.Paths.w.(u2).(v))
        by_target.(v)
    in
    let kept = ref [] in
    let consider u =
      let wuv = dn.Paths.w.(u).(v) in
      let implied =
        u <> v
        && List.exists
             (fun x ->
               let wux = dn.Paths.w.(u).(x) in
               wux <> max_int && wux + dn.Paths.w.(x).(v) <= wuv)
             !kept
      in
      if not implied then begin
        kept := u :: !kept;
        acc := { Lacr_mcmf.Difference.a = u; b = v; bound = wuv - 1 } :: !acc
      end
    in
    List.iter consider sorted
  done;
  !acc

(* The streamed mirror, recomputed directly from the graph (see
   paths.ml): same verdicts as the dense greedy, streaming memory. *)
let pruned_period_constraints_stream ?pool g ~period =
  let n = Graph.num_vertices g in
  let pr = Paths.prune_source_pass ?pool g ~period in
  let cols = Paths.prune_target_pass ?pool g pr in
  let acc = ref [] in
  for v = 0 to n - 1 do
    List.iter
      (fun (u, wuv) -> acc := { Lacr_mcmf.Difference.a = u; b = v; bound = wuv - 1 } :: !acc)
      cols.(v)
  done;
  !acc

let pruned_period_constraints ?pool g (wd : Paths.wd) ~period =
  match wd with
  | Paths.Dense dn -> pruned_period_constraints_dense ?pool dn ~period
  | Paths.Streamed _ -> pruned_period_constraints_stream ?pool g ~period

let reference_list ?(prune = false) ?(extra = []) ?pool g wd ~period =
  let ecs = extra @ edge_constraints g in
  let pcs =
    if prune then pruned_period_constraints ?pool g wd ~period
    else period_constraints ?pool g wd ~period
  in
  ecs @ pcs

(* --- flat emitters ------------------------------------------------- *)

let fill_header ~extra ~edges ca cb cbound =
  let i = ref 0 in
  List.iter
    (fun (c : Lacr_mcmf.Difference.constr) ->
      ca.(!i) <- c.Lacr_mcmf.Difference.a;
      cb.(!i) <- c.Lacr_mcmf.Difference.b;
      cbound.(!i) <- c.Lacr_mcmf.Difference.bound;
      incr i)
    extra;
  Array.iter
    (fun (e : Graph.edge) ->
      ca.(!i) <- e.Graph.src;
      cb.(!i) <- e.Graph.dst;
      cbound.(!i) <- e.Graph.weight;
      incr i)
    edges

(* Unpruned: the source-pass CSR holds each row ascending by target;
   slices are blitted reversed into the descending layout. *)
let emit_unpruned_rows ~pool ~extra ~edges (sr : Paths.flat_rows) =
  let n = Array.length sr.Paths.sr_off - 1 in
  let n_edge = List.length extra + Array.length edges in
  let starts = Array.make n 0 in
  let cum = ref n_edge in
  for u = n - 1 downto 0 do
    starts.(u) <- !cum;
    cum := !cum + (sr.Paths.sr_off.(u + 1) - sr.Paths.sr_off.(u))
  done;
  let m = !cum in
  let ca = Array.make m 0 and cb = Array.make m 0 and cbound = Array.make m 0 in
  fill_header ~extra ~edges ca cb cbound;
  Lacr_util.Pool.parallel_for_chunks pool n (fun lo hi ->
      for u = lo to hi - 1 do
        let rlo = sr.Paths.sr_off.(u) and rhi = sr.Paths.sr_off.(u + 1) in
        let base = starts.(u) in
        for i = rhi - 1 downto rlo do
          let k = base + (rhi - 1 - i) in
          ca.(k) <- u;
          cb.(k) <- sr.Paths.sr_dst.(i);
          cbound.(k) <- sr.Paths.sr_wgt.(i) - 1
        done
      done);
  ({ ca; cb; cbound; m }, n_edge, m - n_edge)

(* Pruned: the target-major cols CSR holds each target's kept pairs in
   consider order; emission is targets descending with each slice
   reversed — the order the sequential prepend assembly produced. *)
let emit_pruned_cols ~pool ~extra ~edges (tc : Paths.flat_cols) =
  let n = Array.length tc.Paths.tc_off - 1 in
  let n_edge = List.length extra + Array.length edges in
  let starts = Array.make n 0 in
  let cum = ref n_edge in
  for v = n - 1 downto 0 do
    starts.(v) <- !cum;
    cum := !cum + (tc.Paths.tc_off.(v + 1) - tc.Paths.tc_off.(v))
  done;
  let m = !cum in
  let ca = Array.make m 0 and cb = Array.make m 0 and cbound = Array.make m 0 in
  fill_header ~extra ~edges ca cb cbound;
  Lacr_util.Pool.parallel_for_chunks pool n (fun lo hi ->
      for v = lo to hi - 1 do
        let clo = tc.Paths.tc_off.(v) and chi = tc.Paths.tc_off.(v + 1) in
        let base = starts.(v) in
        for i = chi - 1 downto clo do
          let k = base + (chi - 1 - i) in
          ca.(k) <- tc.Paths.tc_src.(i);
          cb.(k) <- v;
          cbound.(k) <- tc.Paths.tc_wgt.(i) - 1
        done
      done);
  ({ ca; cb; cbound; m }, n_edge, m - n_edge)

(* --- throwaway probe systems --------------------------------------- *)

let compile ?(extra = []) g (wd : Paths.wd) ~period =
  let n = Paths.num_vertices wd in
  let n_edges = Graph.num_edges g in
  let cap = ref (n_edges + List.length extra + 1024) in
  let ca = ref (Array.make !cap 0) in
  let cb = ref (Array.make !cap 0) in
  let cbound = ref (Array.make !cap 0) in
  let m = ref 0 in
  let push a b bound =
    if !m = !cap then begin
      let ncap = !cap * 2 in
      let grow arr =
        let narr = Array.make ncap 0 in
        Array.blit arr 0 narr 0 !m;
        narr
      in
      ca := grow !ca;
      cb := grow !cb;
      cbound := grow !cbound;
      cap := ncap
    end;
    !ca.(!m) <- a;
    !cb.(!m) <- b;
    !cbound.(!m) <- bound;
    incr m
  in
  Array.iter (fun (e : Graph.edge) -> push e.Graph.src e.Graph.dst e.Graph.weight) (Graph.edges g);
  List.iter
    (fun (c : Lacr_mcmf.Difference.constr) ->
      push c.Lacr_mcmf.Difference.a c.Lacr_mcmf.Difference.b c.Lacr_mcmf.Difference.bound)
    extra;
  (match wd with
  | Paths.Dense dn ->
    for u = 0 to n - 1 do
      let wrow = dn.Paths.w.(u) and drow = dn.Paths.d.(u) in
      for v = 0 to n - 1 do
        if wrow.(v) <> max_int && drow.(v) > period +. epsilon && (u <> v || wrow.(v) = 0) then
          push u v (wrow.(v) - 1)
      done
    done
  | Paths.Streamed fr when Paths.in_window fr ~period ->
    for u = 0 to n - 1 do
      for i = fr.Paths.row_off.(u) to fr.Paths.row_off.(u + 1) - 1 do
        let v = fr.Paths.fdst.(i) in
        let wuv = fr.Paths.fwgt.(i) in
        if fr.Paths.fdly.(i) > period +. epsilon && (u <> v || wuv = 0) then
          push u v (wuv - 1)
      done
    done
  | Paths.Streamed _ ->
    (* Outside the window the frontier is not a complete answer (see
       [Paths.in_window]); the graph-direct enumeration is exact at
       every period. *)
    let sr = Paths.source_pass_flat ~prune:false g ~period in
    for u = 0 to n - 1 do
      for i = sr.Paths.sr_off.(u) to sr.Paths.sr_off.(u + 1) - 1 do
        push u sr.Paths.sr_dst.(i) (sr.Paths.sr_wgt.(i) - 1)
      done
    done);
  { ca = !ca; cb = !cb; cbound = !cbound; m = !m }

(* --- generation ---------------------------------------------------- *)

let generate ?(prune = false) ?(extra = []) ?pool ?(trace = Lacr_obs.Trace.disabled) g wd ~period
    =
  Lacr_obs.Trace.with_span trace ~cat:"retime"
    ~attrs:[ ("period", Lacr_obs.Trace.Float period); ("prune", Lacr_obs.Trace.Bool prune) ]
    "constraints.generate"
    (fun () ->
      let pool = match pool with Some p -> p | None -> Lacr_util.Pool.sequential in
      let edges = Graph.edges g in
      (* Both backends enumerate graph-direct; a streamed frontier only
         lets the source pass skip sources it proves constraint-free. *)
      let frontier =
        match (wd : Paths.wd) with Paths.Streamed fr -> Some fr | Paths.Dense _ -> None
      in
      let sr = Paths.source_pass_flat ~pool ?frontier ~prune g ~period in
      let system, n_edge, n_period =
        if prune then emit_pruned_cols ~pool ~extra ~edges (Paths.prune_target_pass_flat ~pool g sr)
        else emit_unpruned_rows ~pool ~extra ~edges sr
      in
      let survivors = if prune then sr.Paths.sr_off.(Graph.num_vertices g) else -1 in
      let scanned = sr.Paths.sr_scanned and candidates = sr.Paths.sr_candidates in
      if Lacr_obs.Trace.enabled trace then begin
        Lacr_obs.Trace.add (Lacr_obs.Trace.counter trace "constraints.sources_scanned") scanned;
        Lacr_obs.Trace.add (Lacr_obs.Trace.counter trace "constraints.period_candidates")
          candidates;
        if survivors >= 0 then
          Lacr_obs.Trace.add (Lacr_obs.Trace.counter trace "constraints.prune_survivors")
            survivors;
        Lacr_obs.Trace.add (Lacr_obs.Trace.counter trace "constraints.edge") n_edge;
        Lacr_obs.Trace.add (Lacr_obs.Trace.counter trace "constraints.period") n_period;
        Lacr_obs.Trace.span_attr trace "n_edge" (Lacr_obs.Trace.Int n_edge);
        Lacr_obs.Trace.span_attr trace "n_period" (Lacr_obs.Trace.Int n_period)
      end;
      { period; system; n_edge; n_period })
