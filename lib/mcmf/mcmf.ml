(* Successive shortest paths with potentials.  Residual arcs are stored
   in pairs: arc [2k] is the forward arc of handle [k], arc [2k+1] its
   reverse.  Reduced costs [c + pi(u) - pi(v)] stay non-negative on
   residual arcs, so the inner loop is a plain Dijkstra.

   Arc costs are integers (retiming bounds are flip-flop counts), so
   potentials, Dijkstra distances and admissibility tests are exact
   integer arithmetic — no float boxing and no epsilon comparisons on
   the hot paths.  Capacities and supplies stay floats (tile weights
   are real).

   The instance is *reusable*: the first [solve] seals the arc set,
   snapshots capacities, appends one permanent super-source and
   super-sink arc pair per node (capacity set from the supply sign
   each round, so the CSR topology never changes) and allocates the
   per-phase scratch.  Subsequent solves reset the residual in place
   and warm-start from the previous optimum's potentials — valid
   whenever every positive-residual arc still has non-negative reduced
   cost, which [solve] verifies in one O(arcs) scan before skipping
   the Bellman-Ford bootstrap.  The optimum stays in the instance:
   callers read potentials and flows from it, so a solve allocates no
   per-arc or per-node result. *)

type stats = {
  phases : int;  (* Dijkstra + blocking-flow rounds *)
  settles : int;  (* nodes settled across all phase Dijkstras *)
  pushes : int;  (* arc-level pushes inside blocking flows *)
  arc_scans : int;  (* arcs examined by the gathers, BFSs and DFSs *)
  warm_start : bool;  (* previous potentials reused (validated) *)
}

let zero_stats = { phases = 0; settles = 0; pushes = 0; arc_scans = 0; warm_start = false }

type t = {
  n : int;
  mutable arc_dst : int array;  (* indexed by residual arc id *)
  mutable arc_src : int array;
  mutable arc_cap : float array;  (* remaining capacity *)
  mutable arc_cost : int array;
  mutable n_arcs : int;  (* residual arcs used *)
  supply : float array;
  (* --- persistent-engine state, set up by [seal] on first solve --- *)
  mutable sealed : bool;
  mutable user_arcs : int;  (* residual arcs before the super arcs *)
  mutable orig_cap : float array;  (* capacity snapshot of user arcs *)
  mutable csr_row : int array;
  mutable csr_arc : int array;
  (* Scratch reused across solves and phases. *)
  mutable zarc : int array;  (* per-phase zero-reduced-cost arcs, CSR *)
  mutable zend : int array;  (* end of a node's [zarc] slice; -1 = not gathered *)
  mutable dfs_limit : float array;  (* DFS push limit per BFS level *)
  dfs_sent : float array;  (* one cell: the amount the last DFS call pushed *)
  mutable pi : int array;  (* potentials over n + 2 nodes *)
  mutable has_pi : bool;  (* pi holds a previous solve's optimum *)
  mutable dist : int array;
  mutable settled : bool array;
  mutable level : int array;
  mutable queue : int array;
  mutable cursor : int array;
  heap : Lacr_util.Int_heap.t;
  mutable last_stats : stats;
}

let eps = 1e-7

let create n =
  {
    n;
    arc_dst = Array.make 16 0;
    arc_src = Array.make 16 0;
    arc_cap = Array.make 16 0.0;
    arc_cost = Array.make 16 0;
    n_arcs = 0;
    supply = Array.make n 0.0;
    sealed = false;
    user_arcs = 0;
    orig_cap = [||];
    csr_row = [||];
    csr_arc = [||];
    zarc = [||];
    zend = [||];
    dfs_limit = [||];
    dfs_sent = [| 0.0 |];
    pi = [||];
    has_pi = false;
    dist = [||];
    settled = [||];
    level = [||];
    queue = [||];
    cursor = [||];
    heap = Lacr_util.Int_heap.create ();
    last_stats = zero_stats;
  }

let resize_arcs t ncap =
  let extend arr fill =
    let narr = Array.make ncap fill in
    Array.blit arr 0 narr 0 t.n_arcs;
    narr
  in
  t.arc_dst <- extend t.arc_dst 0;
  t.arc_src <- extend t.arc_src 0;
  t.arc_cap <- extend t.arc_cap 0.0;
  t.arc_cost <- extend t.arc_cost 0

let ensure_room t =
  let cap = Array.length t.arc_dst in
  if t.n_arcs + 2 > cap then resize_arcs t (cap * 2)

(* No range validation: also used internally for the super-source and
   super-sink, whose indices are past the public node range. *)
let append_arc t ~src ~dst ~capacity ~cost =
  ensure_room t;
  let fwd = t.n_arcs and bwd = t.n_arcs + 1 in
  t.arc_src.(fwd) <- src;
  t.arc_dst.(fwd) <- dst;
  t.arc_cap.(fwd) <- capacity;
  t.arc_cost.(fwd) <- cost;
  t.arc_src.(bwd) <- dst;
  t.arc_dst.(bwd) <- src;
  t.arc_cap.(bwd) <- 0.0;
  t.arc_cost.(bwd) <- -cost;
  t.n_arcs <- t.n_arcs + 2;
  fwd / 2

let add_arc t ~src ~dst ~capacity ~cost =
  if t.sealed then invalid_arg "Mcmf.add_arc: instance already solved (arc set is sealed)";
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then invalid_arg "Mcmf.add_arc: node range";
  if capacity < 0.0 then invalid_arg "Mcmf.add_arc: negative capacity";
  append_arc t ~src ~dst ~capacity ~cost

let set_supply t v amount =
  if v < 0 || v >= t.n then invalid_arg "Mcmf.set_supply: node range";
  t.supply.(v) <- amount

type error =
  | Unbalanced of float
  | Negative_cycle
  | Infeasible

let error_to_string = function
  | Unbalanced x -> Printf.sprintf "supplies do not cancel (sum = %g)" x
  | Negative_cycle -> "negative-cost cycle of uncapacitated arcs"
  | Infeasible -> "excess supply cannot reach any deficit"

(* Compressed adjacency (CSR): the Dijkstra inner loop runs many times
   per solve, so arc ids are packed into one flat array.  Built once at
   seal time — super arcs are permanent, only their capacities change
   between solves, so the topology is static. *)
let build_csr t ~n_nodes =
  let counts = Array.make (n_nodes + 1) 0 in
  for a = 0 to t.n_arcs - 1 do
    counts.(t.arc_src.(a) + 1) <- counts.(t.arc_src.(a) + 1) + 1
  done;
  for v = 1 to n_nodes do
    counts.(v) <- counts.(v) + counts.(v - 1)
  done;
  let arc_ids = Array.make (max 1 t.n_arcs) 0 in
  let cursor = Array.copy counts in
  for a = 0 to t.n_arcs - 1 do
    let s = t.arc_src.(a) in
    arc_ids.(cursor.(s)) <- a;
    cursor.(s) <- cursor.(s) + 1
  done;
  t.csr_row <- counts;
  t.csr_arc <- arc_ids

(* First solve: freeze the user arc set, snapshot capacities, append
   the permanent super arcs (capacity 0 until a solve sets them from
   the supply signs) and allocate every scratch buffer at its final
   size. *)
let seal t =
  let source = t.n and sink = t.n + 1 in
  let n_nodes = t.n + 2 in
  t.user_arcs <- t.n_arcs;
  t.orig_cap <- Array.sub t.arc_cap 0 t.n_arcs;
  (* The arc set is final now: trim the doubling slack of [add_arc],
     up to half of each arc array, since a sealed instance lives for a
     whole LAC run or in a daemon's cache. *)
  resize_arcs t (t.n_arcs + (4 * t.n));
  for v = 0 to t.n - 1 do
    ignore (append_arc t ~src:source ~dst:v ~capacity:0.0 ~cost:0 : int);
    ignore (append_arc t ~src:v ~dst:sink ~capacity:0.0 ~cost:0 : int)
  done;
  build_csr t ~n_nodes;
  t.zarc <- Array.make (max 1 t.n_arcs) 0;
  t.zend <- Array.make n_nodes (-1);
  t.dfs_limit <- Array.make n_nodes 0.0;
  t.pi <- Array.make n_nodes 0;
  t.dist <- Array.make n_nodes max_int;
  t.settled <- Array.make n_nodes false;
  t.level <- Array.make n_nodes (-1);
  t.queue <- Array.make n_nodes 0;
  t.cursor <- Array.make n_nodes 0;
  t.sealed <- true

(* Rewind the residual network to the pristine arc capacities and load
   this round's supplies into the super arcs.  Returns the total
   amount to route. *)
let reset_residual t =
  Array.blit t.orig_cap 0 t.arc_cap 0 t.user_arcs;
  let remaining = ref 0.0 in
  for v = 0 to t.n - 1 do
    let s = t.supply.(v) in
    let sup = t.user_arcs + (4 * v) and def = t.user_arcs + (4 * v) + 2 in
    t.arc_cap.(sup) <- (if s > eps then s else 0.0);
    t.arc_cap.(sup + 1) <- 0.0;
    t.arc_cap.(def) <- (if s < -.eps then -.s else 0.0);
    t.arc_cap.(def + 1) <- 0.0;
    if s > eps then remaining := !remaining +. s
  done;
  !remaining

(* Bellman-Ford over arcs with positive capacity, all nodes starting at
   distance 0 (equivalent to a zero-cost virtual source): produces
   initial potentials that make every residual reduced cost
   non-negative, and detects negative cycles. *)
let bellman_ford_potentials t ~n_nodes =
  let dist = t.pi in
  Array.fill dist 0 n_nodes 0;
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n_nodes do
    changed := false;
    incr rounds;
    for a = 0 to t.n_arcs - 1 do
      if t.arc_cap.(a) > eps then begin
        let u = t.arc_src.(a) and v = t.arc_dst.(a) in
        let nd = dist.(u) + t.arc_cost.(a) in
        if nd < dist.(v) then begin
          dist.(v) <- nd;
          changed := true
        end
      end
    done
  done;
  not !changed

(* A previous optimum's potentials stay valid for the next round iff
   every positive-residual arc keeps a non-negative reduced cost.  In
   the difference-constraint instances behind LAC-retiming this always
   holds (user arcs are uncapacitated so they never saturate, and arc
   costs never change after sealing); the scan makes warm-starting
   safe for arbitrary capacitated instances too. *)
let try_warm_potentials t =
  if not t.has_pi then false
  else begin
    let source = t.n and sink = t.n + 1 in
    let hi = ref min_int and lo = ref max_int in
    for v = 0 to t.n - 1 do
      if t.pi.(v) > !hi then hi := t.pi.(v);
      if t.pi.(v) < !lo then lo := t.pi.(v)
    done;
    t.pi.(source) <- !hi;
    t.pi.(sink) <- !lo;
    let ok = ref true in
    let a = ref 0 in
    while !ok && !a < t.n_arcs do
      if
        t.arc_cap.(!a) > eps
        && t.arc_cost.(!a) + t.pi.(t.arc_src.(!a)) - t.pi.(t.arc_dst.(!a)) < 0
      then ok := false;
      incr a
    done;
    !ok
  end

(* Primal-dual with blocking flows.  Each phase runs one Dijkstra on
   reduced costs from the super-source S to the super-sink T, updates
   the potentials, then saturates the zero-reduced-cost subgraph with
   a Dinic blocking flow.  Phases advance the dual strictly, and one
   blocking flow serves every supply/demand pair reachable at the
   current cost level — crucial here because weighted min-area
   retiming instances give almost every node a non-zero supply. *)

let dijkstra t ~source ~sink ~n_nodes ~settles =
  let dist = t.dist and settled = t.settled and pi = t.pi and heap = t.heap in
  Array.fill dist 0 n_nodes max_int;
  Array.fill settled 0 n_nodes false;
  Lacr_util.Int_heap.clear heap;
  dist.(source) <- 0;
  Lacr_util.Int_heap.push heap ~prio:0 source;
  (try
     while not (Lacr_util.Int_heap.is_empty heap) do
       let d = Lacr_util.Int_heap.min_prio heap in
       let u = Lacr_util.Int_heap.pop_min heap in
       if not settled.(u) then begin
         settled.(u) <- true;
         incr settles;
         if u = sink then raise Exit;
         for slot = t.csr_row.(u) to t.csr_row.(u + 1) - 1 do
           let a = t.csr_arc.(slot) in
           if t.arc_cap.(a) > eps then begin
             let v = t.arc_dst.(a) in
             if not settled.(v) then begin
               let rc = t.arc_cost.(a) + pi.(u) - pi.(v) in
               let rc = if rc < 0 then 0 else rc in
               let nd = d + rc in
               if nd < dist.(v) then begin
                 dist.(v) <- nd;
                 Lacr_util.Int_heap.push heap ~prio:nd v
               end
             end
           end
         done
       end
     done
   with Exit -> ());
  dist

(* The phase's candidate arcs out of [u]: every residual arc of zero
   reduced cost, capacity ignored, gathered in CSR order into [u]'s own
   CSR slice of [zarc] (it starts at [csr_row.(u)] and ends at
   [zend.(u)]).  Potentials are fixed for the whole phase and the
   reverse of a zero-reduced-cost arc has zero reduced cost too, so a
   push never makes an arc outside this list admissible — the blocking
   flow tests only residual capacity on it, and its scan order (hence
   its push schedule) is the full CSR's with the never-admissible arcs
   skipped.  A node is gathered once per phase, the first time the
   blocking flow needs its arcs, so the nodes no BFS reaches cost
   nothing. *)
let gather_zero_arcs t u ~arc_scans =
  let pi = t.pi and zarc = t.zarc and arc_cost = t.arc_cost and arc_dst = t.arc_dst in
  let lo = t.csr_row.(u) and hi = t.csr_row.(u + 1) in
  let pu = pi.(u) in
  let k = ref lo in
  for slot = lo to hi - 1 do
    let a = t.csr_arc.(slot) in
    if arc_cost.(a) + pu - pi.(arc_dst.(a)) = 0 then begin
      zarc.(!k) <- a;
      incr k
    end
  done;
  t.zend.(u) <- !k;
  arc_scans := !arc_scans + (hi - lo)

(* Dinic blocking flow over the gathered zero-reduced-cost arcs: BFS
   levels orient them, the DFS uses current-arc pointers into [zarc].

   The BFS stops as soon as it labels the sink, and the DFS never
   enters a node other than the sink at the sink's level: every level
   below the sink's is complete by then, and no level-graph path from
   a node at the sink's level (or past it) comes back down to the
   sink, so only dead ends are skipped and the pushes are those of a
   BFS over every reachable node.  The queued nodes the BFS did not
   dequeue, below the sink's level, are gathered before the DFS.

   The DFS keeps its floats unboxed: a call reads its limit from
   [dfs_limit] at its node's level (the caller writes it) and leaves
   what it pushed in [dfs_sent].  The BFS frontier, the pointers and
   these cells are instance scratch — no per-phase allocation.
   [arc_scans] grows by each gather's CSR slice, the arcs each BFS
   node scans, and each DFS visit's cursor advance plus its pushes (a
   push re-examines the arc under the cursor). *)
let blocking_flow t ~source ~sink ~pushes ~arc_scans =
  let zarc = t.zarc and zend = t.zend and csr_row = t.csr_row in
  let arc_cap = t.arc_cap and arc_dst = t.arc_dst in
  let level = t.level and queue = t.queue and cursor = t.cursor in
  let dfs_limit = t.dfs_limit and dfs_sent = t.dfs_sent in
  let n_nodes = Array.length level in
  Array.fill zend 0 n_nodes (-1);
  let rec dfs u =
    let lu = level.(u) in
    let limit = dfs_limit.(lu) in
    if u = sink then dfs_sent.(0) <- limit
    else begin
      let lv = lu + 1 and lsink = level.(sink) in
      let pushed = ref 0.0 in
      let first = cursor.(u) and hi = zend.(u) in
      while !pushed < limit -. eps && cursor.(u) < hi do
        let a = zarc.(cursor.(u)) in
        let v = arc_dst.(a) in
        if arc_cap.(a) > eps && level.(v) = lv && (lv < lsink || v = sink) then begin
          let room = limit -. !pushed and cap = arc_cap.(a) in
          dfs_limit.(lv) <- (if room <= cap then room else cap);
          dfs v;
          let sent = dfs_sent.(0) in
          if sent > eps then begin
            arc_cap.(a) <- arc_cap.(a) -. sent;
            arc_cap.(a lxor 1) <- arc_cap.(a lxor 1) +. sent;
            incr pushes;
            incr arc_scans;
            pushed := !pushed +. sent
          end
          else cursor.(u) <- cursor.(u) + 1
        end
        else cursor.(u) <- cursor.(u) + 1
      done;
      arc_scans := !arc_scans + (cursor.(u) - first);
      dfs_sent.(0) <- !pushed
    end
  in
  let total_pushed = ref 0.0 in
  let continue_phases = ref true in
  while !continue_phases do
    (* BFS levels over admissible arcs, up to the sink. *)
    Array.fill level 0 n_nodes (-1);
    level.(source) <- 0;
    queue.(0) <- source;
    let head = ref 0 and tail = ref 1 in
    while !head < !tail && level.(sink) < 0 do
      let u = queue.(!head) in
      incr head;
      if zend.(u) < 0 then gather_zero_arcs t u ~arc_scans;
      let lo = csr_row.(u) and hi = zend.(u) in
      let slot = ref lo in
      while !slot < hi && level.(sink) < 0 do
        let a = zarc.(!slot) in
        if arc_cap.(a) > eps then begin
          let v = arc_dst.(a) in
          if level.(v) < 0 then begin
            level.(v) <- level.(u) + 1;
            queue.(!tail) <- v;
            incr tail
          end
        end;
        incr slot
      done;
      arc_scans := !arc_scans + (!slot - lo)
    done;
    let lsink = level.(sink) in
    if lsink < 0 then continue_phases := false
    else begin
      for i = !head to !tail - 1 do
        let u = queue.(i) in
        if level.(u) < lsink && zend.(u) < 0 then gather_zero_arcs t u ~arc_scans
      done;
      Array.blit csr_row 0 cursor 0 n_nodes;
      (* DFS pushing one augmenting path at a time (paths are short:
         S -> ... -> T through the level graph). *)
      dfs_limit.(0) <- infinity;
      dfs source;
      let sent = dfs_sent.(0) in
      if sent <= eps then continue_phases := false else total_pushed := !total_pushed +. sent
    end
  done;
  !total_pushed

(* Canonicalize the optimal potentials: shortest distances from a
   zero-cost virtual source to every node over the final residual
   graph.  The dual optimal face is the same for every optimal flow
   (complementary slackness fixes it from any primal optimum), and
   these distances are its unique pointwise-maximal element with
   non-positive entries — so the returned potentials do not depend on
   the path the solver took to the optimum.  This is what makes the
   warm-started engine return bit-identical labels to a cold solve.
   One Dijkstra over reduced costs (the final [pi] certifies
   non-negativity), then un-reduce. *)
let canonicalize_potentials t ~n_nodes =
  let dist = t.dist and settled = t.settled and pi = t.pi and heap = t.heap in
  let hi = ref min_int in
  for v = 0 to n_nodes - 1 do
    if pi.(v) > !hi then hi := pi.(v)
  done;
  let m = !hi in
  Array.fill settled 0 n_nodes false;
  Lacr_util.Int_heap.clear heap;
  for v = 0 to n_nodes - 1 do
    dist.(v) <- m - pi.(v);
    Lacr_util.Int_heap.push heap ~prio:dist.(v) v
  done;
  while not (Lacr_util.Int_heap.is_empty heap) do
    let d = Lacr_util.Int_heap.min_prio heap in
    let u = Lacr_util.Int_heap.pop_min heap in
    if not settled.(u) then begin
      settled.(u) <- true;
      for slot = t.csr_row.(u) to t.csr_row.(u + 1) - 1 do
        let a = t.csr_arc.(slot) in
        if t.arc_cap.(a) > eps then begin
          let v = t.arc_dst.(a) in
          if not settled.(v) then begin
            let rc = t.arc_cost.(a) + pi.(u) - pi.(v) in
            let rc = if rc < 0 then 0 else rc in
            let nd = d + rc in
            if nd < dist.(v) then begin
              dist.(v) <- nd;
              Lacr_util.Int_heap.push heap ~prio:nd v
            end
          end
        end
      done
    end
  done;
  (* Un-reduce in place: true distance = reduced - m + pi. *)
  for v = 0 to n_nodes - 1 do
    pi.(v) <- dist.(v) - m + pi.(v)
  done

let solve ?(trace = Lacr_obs.Trace.disabled) t =
  let total_supply = ref 0.0 in
  for v = 0 to t.n - 1 do
    total_supply := !total_supply +. t.supply.(v)
  done;
  if abs_float !total_supply > 1e-5 then Error (Unbalanced !total_supply)
  else begin
    if not t.sealed then seal t;
    let source = t.n and sink = t.n + 1 in
    let n_nodes = t.n + 2 in
    let remaining = ref (reset_residual t) in
    let warm_started = try_warm_potentials t in
    let bootstrap_ok = warm_started || bellman_ford_potentials t ~n_nodes in
    t.has_pi <- false;
    if not bootstrap_ok then Error Negative_cycle
    else begin
      let pi = t.pi in
      let phases = ref 0 and settles = ref 0 and pushes = ref 0 and arc_scans = ref 0 in
      let rec drive () =
        if !remaining <= 1e-6 then Ok ()
        else begin
          let dist = dijkstra t ~source ~sink ~n_nodes ~settles in
          if dist.(sink) = max_int then Error Infeasible
          else begin
            incr phases;
            let dt = dist.(sink) in
            for v = 0 to n_nodes - 1 do
              let dv = if dist.(v) < dt then dist.(v) else dt in
              pi.(v) <- pi.(v) + dv
            done;
            let pushed = blocking_flow t ~source ~sink ~pushes ~arc_scans in
            if pushed <= eps then Error Infeasible
            else begin
              remaining := !remaining -. pushed;
              drive ()
            end
          end
        end
      in
      let result = drive () in
      t.last_stats <-
        {
          phases = !phases;
          settles = !settles;
          pushes = !pushes;
          arc_scans = !arc_scans;
          warm_start = warm_started;
        };
      if Lacr_obs.Trace.enabled trace then begin
        let bump name n = Lacr_obs.Trace.add (Lacr_obs.Trace.counter trace name) n in
        bump "mcmf.solves" 1;
        bump "mcmf.phases" !phases;
        bump "mcmf.settles" !settles;
        bump "mcmf.pushes" !pushes;
        bump "mcmf.arc_scans" !arc_scans;
        bump (if warm_started then "mcmf.warm_starts" else "mcmf.cold_starts") 1
      end;
      match result with
      | Error e -> Error e
      | Ok () ->
        canonicalize_potentials t ~n_nodes;
        t.has_pi <- true;
        (* Sanitizer: the solution must actually route the loaded
           supplies (conservation over the user arcs, guards included)
           and the final potentials must certify optimality (no
           residual arc with negative reduced cost). *)
        if Lacr_util.Sanitize.enabled () then begin
          Lacr_util.Sanitize.check_flow_conservation ~invariant:"mcmf.conservation" ~n:t.n
            ~n_handles:(t.user_arcs / 2)
            ~src:(fun k -> t.arc_src.(2 * k))
            ~dst:(fun k -> t.arc_dst.(2 * k))
            ~flow:(fun k -> t.arc_cap.((2 * k) + 1))
            ~supply:(fun v -> t.supply.(v))
            ~tol:1e-4;
          Lacr_util.Sanitize.check_admissibility ~invariant:"mcmf.admissible"
            ~n_arcs:t.n_arcs
            ~src:(fun a -> t.arc_src.(a))
            ~dst:(fun a -> t.arc_dst.(a))
            ~cost:(fun a -> t.arc_cost.(a))
            ~residual:(fun a -> t.arc_cap.(a))
            ~pi ~eps
        end;
        Ok ()
    end
  end

let last_stats t = t.last_stats

let potential t v =
  if not t.has_pi then invalid_arg "Mcmf.potential: no optimum (solve first)";
  if v < 0 || v >= t.n then invalid_arg "Mcmf.potential: node range";
  t.pi.(v)

(* The flow on a user arc is the residual capacity its reverse arc
   has gained since [reset_residual] zeroed it. *)
let flow_on t handle =
  if not t.has_pi then invalid_arg "Mcmf.flow_on: no optimum (solve first)";
  if handle < 0 || 2 * handle >= t.user_arcs then invalid_arg "Mcmf.flow_on: arc handle";
  t.arc_cap.((2 * handle) + 1)

let total_cost t =
  let cost = ref 0.0 in
  for k = 0 to (t.user_arcs / 2) - 1 do
    cost := !cost +. (flow_on t k *. float_of_int t.arc_cost.(2 * k))
  done;
  !cost
