(* The constraint system lives in flat parallel arrays ([system]) from
   the moment it is generated.  Both backends enumerate it
   graph-direct through the [Paths] sweep passes, and the emitters
   below write the exact sequence the seed's list assembly produced —
   header (extra, then edge constraints in edge-array order), then the
   period part (unpruned: sources descending with targets descending
   inside a source; pruned: targets descending with each target's kept
   pairs in reverse consider order) — so the system is the same for
   every backend, period, pool size and --domains.  The test suite
   keeps the seed's dense-matrix scan and greedy prune as the
   reference it is compared against. *)

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

(* --- probe systems ---------------------------------------------------- *)

(* A growable system the probes of one min-period search are compiled
   into one after another: its arrays keep their largest size, so a
   probe allocates nothing once the buffer has grown. *)
type buffer = {
  mutable bca : int array;
  mutable bcb : int array;
  mutable bbound : int array;
  mutable bm : int;
}

let buffer () = { bca = [||]; bcb = [||]; bbound = [||]; bm = 0 }

let resize buf cap =
  let grow arr =
    let narr = Array.make cap 0 in
    Array.blit arr 0 narr 0 buf.bm;
    narr
  in
  buf.bca <- grow buf.bca;
  buf.bcb <- grow buf.bcb;
  buf.bbound <- grow buf.bbound

let push buf a b bound =
  let m = buf.bm in
  if m = Array.length buf.bca then resize buf (2 * m);
  buf.bca.(m) <- a;
  buf.bcb.(m) <- b;
  buf.bbound.(m) <- bound;
  buf.bm <- m + 1

(* The period pairs a streamed probe inside the window adds: the test
   of the emitting loop below, counted. *)
let count_window_pairs (fr : Paths.frontier) ~period =
  let k = ref 0 in
  for u = 0 to fr.Paths.fn - 1 do
    for i = fr.Paths.row_off.(u) to fr.Paths.row_off.(u + 1) - 1 do
      if
        fr.Paths.fdly.(i) > period +. Paths.period_tol
        && (u <> fr.Paths.fdst.(i) || fr.Paths.fwgt.(i) = 0)
      then incr k
    done
  done;
  !k

let compile_into buf ?(extra = []) g (wd : Paths.wd) ~period =
  let n = Paths.num_vertices wd in
  buf.bm <- 0;
  let header = Graph.num_edges g + List.length extra in
  (* A streamed probe that does not fit grows the buffer to its exact
     size, or to double the old one when that is larger (so a run of
     slowly growing probes resizes a few times only), but never past
     every frontier pair: a buffer that only doubled would hold up to
     twice the largest probe at the min-period search's peak. *)
  let cap = Array.length buf.bca in
  (match wd with
  | Paths.Streamed fr when Paths.in_window fr ~period ->
    let most = header + fr.Paths.row_off.(n) in
    if cap < most then begin
      let need = header + count_window_pairs fr ~period in
      if cap < need then resize buf (min most (max need (2 * cap)))
    end
  | Paths.Streamed _ | Paths.Dense _ -> if cap < header + 1024 then resize buf (header + 1024));
  Array.iter (fun (e : Graph.edge) -> push buf e.Graph.src e.Graph.dst e.Graph.weight) (Graph.edges g);
  List.iter
    (fun (c : Lacr_mcmf.Difference.constr) ->
      push buf c.Lacr_mcmf.Difference.a c.Lacr_mcmf.Difference.b c.Lacr_mcmf.Difference.bound)
    extra;
  (match wd with
  | Paths.Dense dn ->
    for u = 0 to n - 1 do
      let wrow = dn.Paths.w.(u) and drow = dn.Paths.d.(u) in
      for v = 0 to n - 1 do
        if
          wrow.(v) <> max_int
          && drow.(v) > period +. Paths.period_tol
          && (u <> v || wrow.(v) = 0)
        then push buf u v (wrow.(v) - 1)
      done
    done
  | Paths.Streamed fr when Paths.in_window fr ~period ->
    for u = 0 to n - 1 do
      for i = fr.Paths.row_off.(u) to fr.Paths.row_off.(u + 1) - 1 do
        let v = fr.Paths.fdst.(i) in
        let wuv = fr.Paths.fwgt.(i) in
        if fr.Paths.fdly.(i) > period +. Paths.period_tol && (u <> v || wuv = 0) then
          push buf u v (wuv - 1)
      done
    done
  | Paths.Streamed _ ->
    (* Outside the window the frontier is not a complete answer (see
       [Paths.in_window]); the graph-direct enumeration is exact at
       every period. *)
    let sr = Paths.source_pass_flat ~prune:false g ~period in
    for u = 0 to n - 1 do
      for i = sr.Paths.sr_off.(u) to sr.Paths.sr_off.(u + 1) - 1 do
        push buf u sr.Paths.sr_dst.(i) (sr.Paths.sr_wgt.(i) - 1)
      done
    done);
  { ca = buf.bca; cb = buf.bcb; cbound = buf.bbound; m = buf.bm }

let compile ?extra g wd ~period = compile_into (buffer ()) ?extra g wd ~period

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
