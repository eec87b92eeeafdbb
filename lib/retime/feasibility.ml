let normalize_to_host g labels =
  let base = labels.(Graph.host g) in
  Array.map (fun l -> l - base) labels

(* One probe, compiled into [buf] and solved in [scratch]. *)
let probe buf scratch ~extra g wd ~period =
  let c = Constraints.compile_into buf ~extra g wd ~period in
  if
    Lacr_mcmf.Difference.feasible_in scratch ~a:c.Constraints.ca ~b:c.Constraints.cb
      ~bound:c.Constraints.cbound ~m:c.Constraints.m
  then Some (normalize_to_host g (Lacr_mcmf.Difference.scratch_labels scratch))
  else None

let feasible ?(extra = []) g wd ~period =
  probe (Constraints.buffer ()) (Lacr_mcmf.Difference.scratch (Graph.num_vertices g)) ~extra g wd
    ~period

type min_period_result = { period : float; labels : int array }

(* A frontier closed over pinned vertices carries the pinned min
   period's lower bound, which can sit above the min period of a system
   that leaves one of them free: searching such a system from that
   bound could miss its true minimum, so it is refused. *)
let check_pins g (fr : Paths.frontier) extra =
  let pinned = Paths.pinned_vertices g extra in
  let have = Bytes.make (Graph.num_vertices g) '\000' in
  Array.iter (fun p -> Bytes.set have p '\001') pinned;
  Array.iter
    (fun p ->
      if Bytes.get have p = '\000' then
        invalid_arg
          (Printf.sprintf
             "Feasibility.min_period: the frontier's bound is closed over vertex %d, which \
              [extra] does not pin (pass Paths.compute the same pins)"
             p))
    fr.Paths.fpinned

(* The binary search over the ascending [candidates], counting its
   probes into [probes]. *)
let search ~extra g wd candidates probes =
  let n_cand = Array.length candidates in
  if n_cand = 0 then { period = Graph.clock_period g; labels = Array.make (Graph.num_vertices g) 0 }
  else begin
    (* Invariant: hi is feasible (the max candidate always is: every
       path of minimum weight fits in it without moving a register on
       that path beyond what feasibility provides). *)
    (* Every probe reuses one constraint buffer and one Bellman-Ford
       scratch; the witness is copied out by [normalize_to_host]. *)
    let buf = Constraints.buffer () and scratch = Lacr_mcmf.Difference.scratch (Graph.num_vertices g) in
    let feasible_at period =
      incr probes;
      probe buf scratch ~extra g wd ~period
    in
    let best = ref None in
    let rec search lo hi =
      (* candidates.(hi) known feasible with witness in !best (except
         the very first probe). *)
      if lo >= hi then ()
      else begin
        let mid = (lo + hi) / 2 in
        match feasible_at candidates.(mid) with
        | Some labels ->
          best := Some (candidates.(mid), labels);
          search lo mid
        | None -> search (mid + 1) hi
      end
    in
    (match feasible_at candidates.(n_cand - 1) with
    | Some labels -> best := Some (candidates.(n_cand - 1), labels)
    | None ->
      (* Should be impossible; fall back to the current period with the
         identity retiming. *)
      best := Some (Graph.clock_period g, Array.make (Graph.num_vertices g) 0));
    search 0 (n_cand - 1);
    match !best with
    | Some (period, labels) -> { period; labels }
    | None -> failwith "Feasibility.min_period: internal: no candidate period survived"
  end

let min_period ?(extra = []) ?(trace = Lacr_obs.Trace.disabled) g wd =
  Lacr_obs.Trace.with_span trace ~cat:"retime" "feasibility.min_period" @@ fun () ->
  (* The streamed frontier already paid for the bound (it is its
     retention threshold); the dense backend computes it here, closed
     over the same pins. *)
  let bound =
    match wd with
    | Paths.Streamed fr ->
      check_pins g fr extra;
      fr.Paths.fbound
    | Paths.Dense _ -> Paths.cycle_ratio_lower_bound ~extra g
  in
  (* Candidates are capped at the initial clock period: the identity
     retiming satisfies every constraint there (any pair violating a
     period at or above the longest combinational path has W >= 1),
     so the minimal feasible candidate never exceeds it, and the
     clock period is itself a D value of some zero-weight pair, so
     the capped window is never empty when the full one is not.
     Feasibility is monotone in the period, hence the binary search
     returns the same period and probes the same final candidate —
     same labels — as the uncapped search.  The cap is also what lets
     the streamed backend dominance-reduce pairs beyond the window
     (see Paths). *)
  let t_init = Graph.clock_period g in
  let candidates =
    Paths.distinct_delays wd ~lo:(bound -. Paths.period_tol) ~hi:(t_init +. Paths.period_tol)
  in
  let probes = ref 0 in
  let result = search ~extra g wd candidates probes in
  if Lacr_obs.Trace.enabled trace then begin
    let n_cand = Array.length candidates in
    Lacr_obs.Trace.span_attr trace "candidates" (Lacr_obs.Trace.Int n_cand);
    Lacr_obs.Trace.span_attr trace "probes" (Lacr_obs.Trace.Int !probes);
    Lacr_obs.Trace.add (Lacr_obs.Trace.counter trace "feasibility.candidates") n_cand;
    Lacr_obs.Trace.add (Lacr_obs.Trace.counter trace "feasibility.probes") !probes
  end;
  result
