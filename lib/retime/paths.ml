module Mode = struct
  type t = Auto | Dense | Stream
end

type dense = { w : int array array; d : float array array }

let period_tol = 1e-9

type frontier = {
  fn : int;
  threshold : float;
  fbound : float;  (* cycle-ratio/max-delay lower bound (threshold = fbound - period_tol) *)
  fpinned : int array;  (* the pinned vertices the bound closed the graph over *)
  ffar : float;  (* near/far cut: clock_period + 2 period_tol; far pairs are dominance-reduced *)
  row_off : int array;
  fdst : int array;
  fwgt : int array;
  fdly : float array;
}

type wd = Dense of dense | Streamed of frontier

(* --- dense backend: the independent test oracle --- *)

(* The dense rows run on the graph's CSR fanout view (flat int arrays,
   no list chasing) with a monomorphic int-priority heap and reusable
   scratch, so one row costs one Dijkstra plus two sweeps over the
   out-edges and allocates nothing beyond its two output rows.  These
   kernels share no code with the streamed sweeps below, which is what
   makes the dense matrices a useful oracle for them. *)

type scratch = {
  settled : Bytes.t;
  heap : Lacr_util.Int_heap.t;
  indeg : int array;
  queue : int array;  (* FIFO for the tight-DAG topological pass *)
}

let make_scratch n =
  {
    settled = Bytes.create n;
    heap = Lacr_util.Int_heap.create ~capacity:(max 16 n) ();
    indeg = Array.make n 0;
    queue = Array.make n 0;
  }

(* Dijkstra on edge weights from [source]; weights are small
   non-negative integers.  Lazy deletion: push duplicates, skip
   settled pops.  Returns the freshly allocated W row ([max_int] =
   unreachable). *)
let dijkstra_row ~off ~dst ~wgt ~n scratch source =
  let wrow = Array.make n max_int in
  let settled = scratch.settled in
  Bytes.fill settled 0 n '\000';
  let heap = scratch.heap in
  Lacr_util.Int_heap.clear heap;
  wrow.(source) <- 0;
  Lacr_util.Int_heap.push heap ~prio:0 source;
  while not (Lacr_util.Int_heap.is_empty heap) do
    let u = Lacr_util.Int_heap.pop_min heap in
    if Bytes.get settled u = '\000' then begin
      Bytes.set settled u '\001';
      let wu = wrow.(u) in
      for i = off.(u) to off.(u + 1) - 1 do
        let v = dst.(i) in
        if Bytes.get settled v = '\000' then begin
          let nd = wu + wgt.(i) in
          if nd < wrow.(v) then begin
            wrow.(v) <- nd;
            Lacr_util.Int_heap.push heap ~prio:nd v
          end
        end
      done
    end
  done;
  wrow

(* Among minimum-weight paths from [source], the maximum path delay to
   each vertex: longest path over tight edges (a DAG), by relaxation
   in topological order.  Tight edges are those with
   W(s,x) + w(e) = W(s,y); they cannot form a cycle because the
   circuit has no zero-weight cycle, so every vertex is enqueued
   exactly once and the scratch FIFO of size n suffices. *)
let delay_row ~off ~dst ~wgt ~delays ~n scratch source wrow =
  let indeg = scratch.indeg in
  Array.fill indeg 0 n 0;
  for x = 0 to n - 1 do
    let wx = wrow.(x) in
    if wx <> max_int then
      for i = off.(x) to off.(x + 1) - 1 do
        let y = dst.(i) in
        if wrow.(y) <> max_int && wx + wgt.(i) = wrow.(y) then indeg.(y) <- indeg.(y) + 1
      done
  done;
  let drow = Array.make n neg_infinity in
  drow.(source) <- delays.(source);
  let queue = scratch.queue in
  let head = ref 0 and tail = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      queue.(!tail) <- v;
      incr tail
    end
  done;
  while !head < !tail do
    let x = queue.(!head) in
    incr head;
    let wx = wrow.(x) in
    if wx <> max_int then begin
      let dx = drow.(x) in
      for i = off.(x) to off.(x + 1) - 1 do
        let y = dst.(i) in
        if wrow.(y) <> max_int && wx + wgt.(i) = wrow.(y) then begin
          if dx > neg_infinity then begin
            let cand = dx +. delays.(y) in
            if cand > drow.(y) then drow.(y) <- cand
          end;
          indeg.(y) <- indeg.(y) - 1;
          if indeg.(y) = 0 then begin
            queue.(!tail) <- y;
            incr tail
          end
        end
      done
    end
  done;
  drow

(* --- the cycle-ratio lower bound: Howard's policy iteration --- *)

(* The vertices [extra] ties to the host: it holds both
   [r(p) - r(host) <= 0] and [r(host) - r(p) <= 0], so every retiming
   that satisfies it has [r(p) = r(host) = 0].  Ascending. *)
let pinned_vertices g (extra : Lacr_mcmf.Difference.constr list) =
  let n = Graph.num_vertices g and host = Graph.host g in
  let mark = Bytes.make n '\000' in
  let set v bit = Bytes.set mark v (Char.unsafe_chr (Char.code (Bytes.get mark v) lor bit)) in
  List.iter
    (fun (c : Lacr_mcmf.Difference.constr) ->
      let a = c.Lacr_mcmf.Difference.a and b = c.Lacr_mcmf.Difference.b in
      if c.Lacr_mcmf.Difference.bound = 0 && a <> b then
        if b = host && a >= 0 && a < n then set a 1
        else if a = host && b >= 0 && b < n then set b 2)
    extra;
  let pinned = ref [] in
  for v = n - 1 downto 0 do
    if Bytes.get mark v = '\003' then pinned := v :: !pinned
  done;
  Array.of_list !pinned

(* The graph's CSR, closed through a zero-delay hub (vertex [n]) when
   [pinned] is non-empty: arcs hub -> p of weight 0 and p -> hub of
   weight 1 per pinned vertex, after p's own out-arcs.  Returns
   [(vertices, off, dst, wgt, delay)]; unclosed, the graph's own
   arrays. *)
let closed_csr g pinned =
  let n = Graph.num_vertices g in
  let off = Graph.csr_offsets g and dst = Graph.csr_dst g and wgt = Graph.csr_weight g in
  let k = Array.length pinned in
  if k = 0 then (n, off, dst, wgt, Graph.delays g)
  else begin
    let is_pinned = Bytes.make n '\000' in
    Array.iter (fun p -> Bytes.set is_pinned p '\001') pinned;
    let coff = Array.make (n + 2) 0 in
    for v = 0 to n - 1 do
      let closing = if Bytes.get is_pinned v = '\001' then 1 else 0 in
      coff.(v + 1) <- coff.(v) + (off.(v + 1) - off.(v)) + closing
    done;
    coff.(n + 1) <- coff.(n) + k;
    let mc = coff.(n + 1) in
    let cdst = Array.make mc 0 and cwgt = Array.make mc 0 in
    for v = 0 to n - 1 do
      let base = coff.(v) and len = off.(v + 1) - off.(v) in
      Array.blit dst off.(v) cdst base len;
      Array.blit wgt off.(v) cwgt base len;
      if Bytes.get is_pinned v = '\001' then begin
        cdst.(base + len) <- n;
        cwgt.(base + len) <- 1
      end
    done;
    Array.blit pinned 0 cdst coff.(n) k;
    let cdel = Array.make (n + 1) 0.0 in
    Array.blit (Graph.delays g) 0 cdel 0 n;
    (n + 1, coff, cdst, cwgt, cdel)
  end

(* Strongly connected components by an iterative Tarjan walk over a
   CSR.  Returns [(comp, order, comp_off, n_comp)]: [order] lists the
   vertices grouped by component, component [c] in slots
   [comp_off.(c), comp_off.(c + 1)).  A visited vertex is on Tarjan's
   stack exactly while it has no component yet. *)
let components ~off ~dst n =
  let index = Array.make n (-1) and low = Array.make n 0 in
  let stack = Array.make n 0 and sp = ref 0 in
  let call = Array.make n 0 and cursor = Array.make n 0 and cp = ref 0 in
  let comp = Array.make n (-1) and order = Array.make n 0 and filled = ref 0 in
  let comp_off = Array.make (n + 1) 0 and n_comp = ref 0 in
  let next = ref 0 in
  let enter v =
    index.(v) <- !next;
    low.(v) <- !next;
    incr next;
    stack.(!sp) <- v;
    incr sp;
    cursor.(v) <- off.(v);
    call.(!cp) <- v;
    incr cp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      enter root;
      while !cp > 0 do
        let v = call.(!cp - 1) in
        let i = cursor.(v) in
        if i < off.(v + 1) then begin
          cursor.(v) <- i + 1;
          let w = dst.(i) in
          if index.(w) < 0 then enter w
          else if comp.(w) < 0 && index.(w) < low.(v) then low.(v) <- index.(w)
        end
        else begin
          decr cp;
          if !cp > 0 then begin
            let u = call.(!cp - 1) in
            if low.(v) < low.(u) then low.(u) <- low.(v)
          end;
          if low.(v) = index.(v) then begin
            let popping = ref true in
            while !popping do
              decr sp;
              let w = stack.(!sp) in
              comp.(w) <- !n_comp;
              order.(!filled) <- w;
              incr filled;
              if w = v then popping := false
            done;
            incr n_comp;
            comp_off.(!n_comp) <- !filled
          end
        end
      done
    end
  done;
  (comp, order, comp_off, !n_comp)

(* Policy iterations per component before the best cycle found so far
   is returned as it stands (a real cycle, so still a valid bound).
   The large components of s298, s526, s953, s1423 and hier:2000
   converge in 5-8. *)
let howard_max_iter = 1000

(* The ratio of the policy cycle through [v], summed from the head of
   its first registered arc after [v]. *)
let policy_cycle_ratio ~policy ~dst ~wgt ~del v =
  let start = ref (-1) and u = ref v in
  while !start < 0 do
    let e = policy.(!u) in
    u := dst.(e);
    if wgt.(e) > 0 then start := !u
    else if !u = v then failwith "Paths.cycle_ratio_lower_bound: zero-weight cycle"
  done;
  let d = ref 0.0 and w = ref 0 and u = ref !start and closed = ref false in
  while not !closed do
    d := !d +. del.(!u);
    let e = policy.(!u) in
    w := !w + wgt.(e);
    u := dst.(e);
    if !u = !start then closed := true
  done;
  !d /. float_of_int !w

(* Lower bound on any achievable period: the largest vertex delay and
   the maximum cycle ratio max_C d(C) / w(C) of the graph closed
   through the pinned I/O (registers on a cycle are invariant under
   retiming, so the cycle's delay must fit in w(C) periods; the closure
   is sound because a pinned path keeps its registers, DESIGN §3).

   Howard's policy iteration per strongly connected component (after
   Cochet-Terrasson et al. 1998, and the in-arc sweep of Dasdan, Irani
   and Gupta, DAC'99): every vertex follows one out-arc (its policy),
   the best cycle of the policy graph gives a ratio [lambda], reverse
   sweeps from that cycle give every vertex the value
   [x(u) = x(v) + d(u) - lambda * w(u -> v)] along its policy, and any
   arc that raises a value by more than float noise becomes the new
   policy.  When no arc does, no cycle's ratio exceeds [lambda].  The
   bound is the best cycle ratio seen, summed from the head of one of
   its registered arcs (the order a D value of the same path is summed
   in), so it is the ratio of a real cycle whether or not the
   iteration converged.  Arc cost is the source vertex's delay; the
   hub's is 0.  Flat arrays throughout: no closure, no boxed float in
   the loops. *)
let closed_bound g pinned =
  let nc, off, dst, wgt, del = closed_csr g pinned in
  let n = Graph.num_vertices g in
  let max_delay =
    let m = ref 0.0 in
    for v = 0 to n - 1 do
      if del.(v) > !m then m := del.(v)
    done;
    !m
  in
  let comp, order, comp_off, n_comp = components ~off ~dst nc in
  (* Intra-component in-arcs: source and arc index per target. *)
  let rin_off = Array.make (nc + 1) 0 in
  for u = 0 to nc - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      let v = dst.(i) in
      if comp.(v) = comp.(u) then rin_off.(v + 1) <- rin_off.(v + 1) + 1
    done
  done;
  for v = 1 to nc do
    rin_off.(v) <- rin_off.(v) + rin_off.(v - 1)
  done;
  let rin_src = Array.make (max 1 rin_off.(nc)) 0 and rin_arc = Array.make (max 1 rin_off.(nc)) 0 in
  let fill = Array.sub rin_off 0 nc in
  for u = 0 to nc - 1 do
    for i = off.(u) to off.(u + 1) - 1 do
      let v = dst.(i) in
      if comp.(v) = comp.(u) then begin
        rin_src.(fill.(v)) <- u;
        rin_arc.(fill.(v)) <- i;
        fill.(v) <- fill.(v) + 1
      end
    done
  done;
  let policy = Array.make nc (-1) and x = Array.make nc 0.0 in
  let mark = Array.make nc 0 and token = ref 1 in
  let queue = Array.make nc 0 in
  let best = ref neg_infinity in
  for c = 0 to n_comp - 1 do
    let lo = comp_off.(c) and hi = comp_off.(c + 1) in
    if hi - lo >= 2 then begin
      (* Initial policy: the fewest registers, then the slowest head. *)
      for t = lo to hi - 1 do
        let u = order.(t) in
        for i = off.(u) to off.(u + 1) - 1 do
          let v = dst.(i) in
          if comp.(v) = c then begin
            let p = policy.(u) in
            if p < 0 || wgt.(i) < wgt.(p) || (wgt.(i) = wgt.(p) && del.(v) > del.(dst.(p))) then
              policy.(u) <- i
          end
        done
      done;
      let iter = ref 0 and improved = ref true in
      while !improved && !iter < howard_max_iter do
        incr iter;
        (* The best cycle of the policy graph: walks marked with one
           token each, so a walk that meets its own token closed a
           cycle. *)
        let base = !token in
        token := base + (hi - lo) + 1;
        let lambda = ref neg_infinity and root = ref (-1) in
        for t = lo to hi - 1 do
          let s = order.(t) in
          if mark.(s) < base then begin
            let tok = base + (t - lo) in
            let v = ref s in
            while mark.(!v) < base do
              mark.(!v) <- tok;
              v := dst.(policy.(!v))
            done;
            if mark.(!v) = tok then begin
              let r = policy_cycle_ratio ~policy ~dst ~wgt ~del !v in
              if r > !lambda then begin
                lambda := r;
                root := !v
              end
            end
          end
        done;
        let lambda = !lambda and root = !root in
        if lambda > !best then best := lambda;
        (* Values: a reverse sweep from the cycle along policy arcs,
           then a second one along any arc (which becomes the policy)
           for the vertices the first did not reach. *)
        let reached = base + (hi - lo) in
        x.(root) <- 0.0;
        mark.(root) <- reached;
        queue.(0) <- root;
        let qtail = ref 1 in
        for pass = 0 to 1 do
          let any = pass = 1 and qhead = ref 0 in
          while !qhead < !qtail do
            let v = queue.(!qhead) in
            incr qhead;
            let xv = x.(v) in
            for j = rin_off.(v) to rin_off.(v + 1) - 1 do
              let u = rin_src.(j) and e = rin_arc.(j) in
              if mark.(u) <> reached && (any || policy.(u) = e) then begin
                mark.(u) <- reached;
                policy.(u) <- e;
                x.(u) <- xv +. del.(u) -. (lambda *. float_of_int wgt.(e));
                queue.(!qtail) <- u;
                incr qtail
              end
            done
          done
        done;
        improved := false;
        for t = lo to hi - 1 do
          let v = order.(t) in
          let xv = x.(v) in
          for j = rin_off.(v) to rin_off.(v + 1) - 1 do
            let u = rin_src.(j) and e = rin_arc.(j) in
            let cand = xv +. del.(u) -. (lambda *. float_of_int wgt.(e)) in
            let xu = x.(u) in
            if cand > xu +. (1e-12 *. (Float.abs xu +. lambda)) then begin
              x.(u) <- cand;
              policy.(u) <- e;
              improved := true
            end
          done
        done
      done
    end
  done;
  if !best > max_delay then !best else max_delay

let cycle_ratio_lower_bound ?(extra = []) g = closed_bound g (pinned_vertices g extra)

let compute_dense ~pool ~trace g =
  let n = Graph.num_vertices g in
  let off = Graph.csr_offsets g
  and dst = Graph.csr_dst g
  and wgt = Graph.csr_weight g
  and delays = Graph.delays g in
  let w = Array.make n [||] and d = Array.make n [||] in
  (* Metric handles are resolved up front; when tracing is off they are
     no-ops and the per-chunk accounting block is skipped entirely, so
     the row kernels below run exactly as before. *)
  let traced = Lacr_obs.Trace.enabled trace in
  let c_rows = Lacr_obs.Trace.counter trace "paths.rows" in
  let c_reach = Lacr_obs.Trace.counter trace "paths.reachable_pairs" in
  Lacr_obs.Trace.with_span trace ~cat:"retime"
    ~attrs:[ ("vertices", Lacr_obs.Trace.Int n) ]
    "paths.compute"
    (fun () ->
      (* Each chunk allocates its own scratch and each source writes only
         its own w/d rows, so the parallel run is race-free and — because
         every row is a pure function of (g, u) — bit-identical to the
         sequential run for any pool size. *)
      Lacr_util.Pool.parallel_for_chunks pool n (fun lo hi ->
          let scratch = make_scratch n in
          for u = lo to hi - 1 do
            (* The trivial single-vertex path gives W(u,u) = 0, D(u,u) = d(u);
               this is the Leiserson-Saxe convention that makes a vertex delay
               exceeding the period show up as the infeasible self constraint
               r(u) - r(u) <= -1.  Cycle paths back to u all have weight >= 1,
               so they never displace the trivial self pair. *)
            let wrow = dijkstra_row ~off ~dst ~wgt ~n scratch u in
            let drow = delay_row ~off ~dst ~wgt ~delays ~n scratch u wrow in
            w.(u) <- wrow;
            d.(u) <- drow
          done;
          if traced then begin
            Lacr_obs.Trace.add c_rows (hi - lo);
            let reach = ref 0 in
            for u = lo to hi - 1 do
              let wrow = w.(u) in
              for v = 0 to n - 1 do
                if wrow.(v) <> max_int then incr reach
              done
            done;
            Lacr_obs.Trace.add c_reach !reach
          end));
  Dense { w; d }

(* --- per-source sweeps: the streamed frontier and the constraint passes --- *)

(* Reusable per-worker scratch for the per-source sweeps.  All
   validity is epoch-stamped so a row touches only the vertices it
   reaches: no O(n) clearing between rows, which is what keeps the
   whole pass O(sum of reached set sizes) instead of O(n^2). *)
type stream_scratch = {
  swrow : int array;  (* [max_int] outside the active sweep (see [tight_sweep]) *)
  sdrow : float array;
  ssettled : int array;  (* epoch when settled; doubles as "reached" *)
  squeue : int array;  (* the current sweep's tight-DAG topological order *)
  stouched : int array;  (* reached vertices in settle order *)
  scand : int array;  (* kept targets of the current row *)
  sdrop : int array;  (* epoch when dominated by a far tight predecessor *)
  scmem : int array;  (* epoch when a prune-candidate (marking passes) *)
  spos : int array;  (* epoch when a candidate ancestor precedes via positive weight *)
  smax : int array;  (* largest candidate ancestor over zero-weight tight paths *)
  mutable sepoch : int;
  (* Dial queue for the flat sweeps: one stack per tentative distance.
     Path weights are small (register counts), so the bucket count
     stays tiny and every queue operation is O(1) — no heap log
     factor.  Both arrays grow together on demand; every sweep drains
     its buckets completely, so no per-sweep reset is needed. *)
  mutable sdial : int array array;
  mutable sdlen : int array;
  mutable sdcls : int array;  (* per-distance class offsets for the topo build *)
  mutable sprev_nt : int;  (* touched-set size of the previous sweep *)
}

let make_stream_scratch n =
  {
    swrow = Array.make n max_int;
    sdrow = Array.make n neg_infinity;
    ssettled = Array.make n 0;
    squeue = Array.make n 0;
    stouched = Array.make n 0;
    scand = Array.make n 0;
    sdrop = Array.make n 0;
    scmem = Array.make n 0;
    spos = Array.make n 0;
    smax = Array.make n 0;
    sepoch = 0;
    sdial = Array.make 64 [||];
    sdlen = Array.make 64 0;
    sdcls = Array.make 66 0;
    sprev_nt = 0;
  }

(* Global topological order of the zero-weight subgraph (well-defined:
   a legal circuit has no zero-weight cycle).  The point: an edge that
   is tight for SOME source either has positive weight — then the
   endpoints' distances from that source strictly increase — or zero
   weight — then it is a zero-subgraph edge and this order covers it.
   So for every source, sorting the reached set by
   (distance, zero-rank) is a valid topological order of that source's
   tight DAG, and the per-source Kahn passes disappear.  Returns
   [(zorder, zrank)]: rank-to-vertex and vertex-to-rank. *)
let zero_topo_order ~off ~dst ~wgt n =
  let indeg = Array.make n 0 in
  for x = 0 to n - 1 do
    for i = off.(x) to off.(x + 1) - 1 do
      if wgt.(i) = 0 then indeg.(dst.(i)) <- indeg.(dst.(i)) + 1
    done
  done;
  let zorder = Array.make n 0 in
  let tail = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      zorder.(!tail) <- v;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let x = zorder.(!head) in
    incr head;
    for i = off.(x) to off.(x + 1) - 1 do
      if wgt.(i) = 0 then begin
        let y = dst.(i) in
        indeg.(y) <- indeg.(y) - 1;
        if indeg.(y) = 0 then begin
          zorder.(!tail) <- y;
          incr tail
        end
      end
    done
  done;
  if !tail < n then failwith "Paths.zero_topo_order: zero-weight cycle";
  let zrank = Array.make n 0 in
  for r = 0 to n - 1 do
    zrank.(zorder.(r)) <- r
  done;
  (zorder, zrank)

(* The per-source sweep behind the streamed frontier and the flat
   constraint passes: a Dial bucket-queue Dijkstra on edge weights,
   then one counting pass over the reached set instead of a Kahn pass
   over the tight DAG: vertices are laid into [squeue] grouped by
   ascending distance and, within a distance class, by ascending
   zero-subgraph rank — a valid topological order of the tight DAG
   (see [zero_topo_order]).  The distances are the unique
   shortest-path values, and every downstream quantity ([drow],
   [spos], [smax]) is an order-independent DAG fixpoint, so the
   results match the dense [dijkstra_row]/[delay_row] kernels bit for
   bit.  [cap] truncates the exploration at a distance bound: every
   retained distance, and the tight sub-DAG over the retained set, are
   unchanged (prefixes of shortest paths are shortest), which is what
   the target pass exploits — dominance verdicts for a survivor slice
   only ever read vertices no farther than the slice's largest
   weight. *)
let tight_sweep ?(cap = max_int) sc ~off ~dst ~wgt ~zorder ~zrank root =
  sc.sepoch <- sc.sepoch + 1;
  let ep = sc.sepoch in
  let n = Array.length zorder in
  let wrow = sc.swrow and settled = sc.ssettled in
  (* Restore the rest state ([max_int] everywhere) from the previous
     sweep's touched set, so relaxation needs no per-edge stamp check:
     an untouched vertex simply reads as unreachable. *)
  let touched = sc.stouched in
  for t = 0 to sc.sprev_nt - 1 do
    wrow.(touched.(t)) <- max_int
  done;
  let push d v =
    if d >= Array.length sc.sdlen then begin
      let ncap = max (2 * Array.length sc.sdlen) (d + 1) in
      let ndial = Array.make ncap [||] and nlen = Array.make ncap 0 in
      Array.blit sc.sdial 0 ndial 0 (Array.length sc.sdial);
      Array.blit sc.sdlen 0 nlen 0 (Array.length sc.sdlen);
      sc.sdial <- ndial;
      sc.sdlen <- nlen;
      sc.sdcls <- Array.make (ncap + 2) 0
    end;
    let b = sc.sdial.(d) in
    let l = sc.sdlen.(d) in
    let b =
      if l < Array.length b then b
      else begin
        let nb = Array.make (max 16 (2 * l)) 0 in
        Array.blit b 0 nb 0 l;
        sc.sdial.(d) <- nb;
        nb
      end
    in
    b.(l) <- v;
    sc.sdlen.(d) <- l + 1
  in
  wrow.(root) <- 0;
  push 0 root;
  let nt = ref 0 in
  let maxd = ref 0 in
  let d = ref 0 in
  while !d <= !maxd do
    let dd = !d in
    while sc.sdlen.(dd) > 0 do
      let l = sc.sdlen.(dd) - 1 in
      sc.sdlen.(dd) <- l;
      let x = sc.sdial.(dd).(l) in
      if settled.(x) <> ep then begin
        settled.(x) <- ep;
        touched.(!nt) <- x;
        incr nt;
        for i = off.(x) to off.(x + 1) - 1 do
          let y = dst.(i) in
          if settled.(y) <> ep then begin
            let nd = dd + wgt.(i) in
            if nd <= cap && nd < wrow.(y) then begin
              wrow.(y) <- nd;
              push nd y;
              if nd > !maxd then maxd := nd
            end
          end
        done
      end
    done;
    incr d
  done;
  let nt = !nt in
  sc.sprev_nt <- nt;
  let queue = sc.squeue in
  if 16 * nt < n then begin
    (* Sparse reach: sort the packed (distance, zero-rank) keys. *)
    for t = 0 to nt - 1 do
      queue.(t) <- (wrow.(touched.(t)) * n) + zrank.(touched.(t))
    done;
    Lacr_util.Int_sort.sort_slice queue ~lo:0 ~hi:nt;
    for t = 0 to nt - 1 do
      queue.(t) <- zorder.(queue.(t) mod n)
    done
  end
  else begin
    (* Dense reach: one counting pass over the distance classes, then
       one scan of the global zero order drops each reached vertex
       into its class slot — rank order within a class for free. *)
    let cls = sc.sdcls in
    Array.fill cls 0 (!maxd + 2) 0;
    for t = 0 to nt - 1 do
      let w = wrow.(touched.(t)) in
      cls.(w + 1) <- cls.(w + 1) + 1
    done;
    for w = 1 to !maxd + 1 do
      cls.(w) <- cls.(w) + cls.(w - 1)
    done;
    for r = 0 to n - 1 do
      let v = zorder.(r) in
      if settled.(v) = ep then begin
        let w = wrow.(v) in
        queue.(cls.(w)) <- v;
        cls.(w) <- cls.(w) + 1
      end
    done
  end;
  nt

(* Sources are swept in contiguous chunks of about a quarter of a
   worker's share (capped so chunk arenas stay small), and each worker
   domain keeps one scratch for all of its chunks. *)
let row_chunk pool n =
  let parts = 4 * Lacr_util.Pool.size pool in
  max 1 (min 8192 ((n + parts - 1) / parts))

let worker_scratch scratches n =
  let slot = Lacr_util.Pool.worker_slot () in
  match scratches.(slot) with
  | Some sc -> sc
  | None ->
    let sc = make_stream_scratch n in
    scratches.(slot) <- Some sc;
    sc

(* Per-chunk arena of frontier triples plus per-source counts.
   Exactly one worker writes a given arena (chunks are claimed whole),
   and the merge reads them after the pool joins.  Triples go into
   blocks that double from 256 up to [arena_block] entries: a full
   block is kept and a fresh one started, so the arena never copies
   what it holds, and the merged frontier is the only second copy
   (a doubling array would allocate up to four times what it holds,
   the frontier's largest transient at Table 1 sizes). *)
let arena_block = 8192

type block = { bdst : int array; bwgt : int array; bdly : float array }

let make_block size =
  { bdst = Array.make size 0; bwgt = Array.make size 0; bdly = Array.make size 0.0 }

type arena = {
  mutable full : block list;  (* filled blocks, newest first *)
  mutable cur : block;
  mutable clen : int;  (* entries used in [cur] *)
  mutable alen : int;  (* entries in the whole arena *)
  acounts : int array;
  alo : int;
}

let arena_push a v w d =
  if a.clen = Array.length a.cur.bdst then begin
    a.full <- a.cur :: a.full;
    a.cur <- make_block (min arena_block (2 * a.clen));
    a.clen <- 0
  end;
  let b = a.cur and i = a.clen in
  b.bdst.(i) <- v;
  b.bwgt.(i) <- w;
  b.bdly.(i) <- d;
  a.clen <- i + 1;
  a.alen <- a.alen + 1

(* One frontier row on the shared sweep kernel: W from [tight_sweep],
   then a single pass over its tight-DAG topological order that relaxes
   the longest delay, decides retention and propagates far dominance —
   when x is reached in that order its delay and its dominance mark
   are final, since both only read tight-DAG ancestors.  Returns the
   retained count; targets are in [sc.scand] (ascending), their W/D
   read back from [sc.swrow]/[sc.sdrow].  Values are bit-identical to
   the dense row kernels: the distances are the unique shortest-path
   values and the tight-DAG maximum over identical float candidate
   sets is order-independent.

   Retention is split at [far_cut] (the initial clock period plus
   [period_tol] of float noise, plus the constraint-test tolerance).
   Feasibility never probes a period above the initial clock period
   plus that noise — the identity retiming makes T_init feasible, so
   the min-period search is capped there — which makes a "far" pair
   (D beyond the cut) one that violates *every* probed period.  The near band [threshold, far_cut] is kept in full; a far
   target is kept only when it has no far tight-DAG ancestor, i.e.
   only the first crossing shell of the far cut survives.  Soundness:
   a far ancestor x of y lies on a minimum-weight path, so
   W(u,x) + W(x,y) = W(u,y) and y's constraint is implied by x's plus
   the tight-edge constraints; x is a candidate at every probed
   period, and the justification chains terminate because the tight
   graph is acyclic (a tight cycle would be a zero-weight cycle), so
   Bellman-Ford distance vectors — hence every feasibility verdict
   and label set — are unchanged.  The reduction is invisible to
   probe outcomes, and constraint generation is graph-direct (see
   [source_pass_flat]; the frontier only gates which sources it
   sweeps), so both backends emit bit-identical systems. *)
let frontier_row sc ~off ~dst ~wgt ~delays ~zorder ~zrank ~threshold ~far_cut u =
  let nt = tight_sweep sc ~off ~dst ~wgt ~zorder ~zrank u in
  let ep = sc.sepoch in
  let wrow = sc.swrow
  and drow = sc.sdrow
  and settled = sc.ssettled
  and queue = sc.squeue
  and drop = sc.sdrop
  and cand = sc.scand in
  for t = 0 to nt - 1 do
    drow.(queue.(t)) <- neg_infinity
  done;
  drow.(u) <- delays.(u);
  let nc = ref 0 in
  for t = 0 to nt - 1 do
    let x = queue.(t) in
    let wx = wrow.(x) and dx = drow.(x) in
    let far = dx > far_cut in
    let dominated = drop.(x) = ep in
    if dx >= threshold && ((not far) || not dominated) then begin
      cand.(!nc) <- x;
      incr nc
    end;
    let mark = far || dominated in
    for i = off.(x) to off.(x + 1) - 1 do
      let y = dst.(i) in
      if settled.(y) = ep && wx + wgt.(i) = wrow.(y) then begin
        let c = dx +. delays.(y) in
        if c > drow.(y) then drow.(y) <- c;
        if mark then drop.(y) <- ep
      end
    done
  done;
  Lacr_util.Int_sort.sort_slice cand ~lo:0 ~hi:!nc;
  !nc

let compute_streamed ~pool ~trace ~pinned g =
  let n = Graph.num_vertices g in
  let off = Graph.csr_offsets g
  and dst = Graph.csr_dst g
  and wgt = Graph.csr_weight g
  and delays = Graph.delays g in
  (* Every consumer of the matrices — min-period candidates filtered
     at [>= bound - period_tol], feasibility probes and constraint
     generation at periods no smaller than the smallest candidate —
     only ever reads pairs with D at or above the cycle-ratio lower
     bound, so the frontier at [bound - period_tol] loses nothing.
     At the other end, no consumer probes a period above the initial
     clock period (the identity retiming already achieves it), so
     pairs beyond [far_cut] violate every probe uniformly and are kept
     only up to dominance — see [frontier_row].  Without that
     reduction the frontier is Theta(n^2) on deep registered pipelines
     (path delay grows with register distance, so nearly every ordered
     pair clears the threshold) and the memory wall this backend exists
     to break comes straight back.  Probes outside that window are
     answered graph-direct instead (see [in_window]).  Closed over the
     pinned I/O, the bound is the pinned min period's own lower bound,
     so only a min-period search under the same pins may read it. *)
  let traced = Lacr_obs.Trace.enabled trace in
  let c_rows = Lacr_obs.Trace.counter trace "paths.rows" in
  let c_front = Lacr_obs.Trace.counter trace "paths.frontier_pairs" in
  Lacr_obs.Trace.with_span trace ~cat:"retime"
    ~attrs:[ ("vertices", Lacr_obs.Trace.Int n); ("mode", Lacr_obs.Trace.Str "stream") ]
    "paths.compute"
    (fun () ->
      let bound = closed_bound g pinned in
      if traced then begin
        Lacr_obs.Trace.span_attr trace "bound" (Lacr_obs.Trace.Float bound);
        Lacr_obs.Trace.span_attr trace "pinned" (Lacr_obs.Trace.Int (Array.length pinned))
      end;
      let threshold = bound -. period_tol in
      (* Min-period candidates reach T_init + period_tol (D values
         equal to T_init up to float noise) and the constraint test
         adds its own period_tol; computing the cut as that same sum
         puts every candidate inside [in_window], since rounding is
         monotone. *)
      let far_cut = Graph.clock_period g +. period_tol +. period_tol in
      let zorder, zrank = zero_topo_order ~off ~dst ~wgt n in
      let chunk = row_chunk pool n in
      let n_chunks = (n + chunk - 1) / chunk in
      let arenas = Array.make n_chunks None in
      let scratches = Array.make Lacr_util.Pool.max_slots None in
      Lacr_util.Pool.parallel_for_chunks ~chunk pool n (fun lo hi ->
          let sc = worker_scratch scratches n in
          let a =
            {
              full = [];
              cur = make_block 256;
              clen = 0;
              alen = 0;
              acounts = Array.make (hi - lo) 0;
              alo = lo;
            }
          in
          for u = lo to hi - 1 do
            let nc =
              frontier_row sc ~off ~dst ~wgt ~delays ~zorder ~zrank ~threshold ~far_cut u
            in
            a.acounts.(u - lo) <- nc;
            for i = 0 to nc - 1 do
              let v = sc.scand.(i) in
              arena_push a v sc.swrow.(v) sc.sdrow.(v)
            done
          done;
          arenas.(lo / chunk) <- Some a;
          if traced then begin
            Lacr_obs.Trace.add c_rows (hi - lo);
            Lacr_obs.Trace.add c_front a.alen
          end);
      (* Deterministic merge in chunk order: chunks partition the
         source range contiguously, so concatenation yields the flat
         frontier grouped by source ascending — the same bits for any
         chunk size or pool size. *)
      let row_off = Array.make (n + 1) 0 in
      let total = ref 0 in
      Array.iter
        (function
          | None -> ()
          | Some a ->
            Array.iteri (fun i c -> row_off.(a.alo + i + 1) <- c) a.acounts;
            total := !total + a.alen)
        arenas;
      for v = 1 to n do
        row_off.(v) <- row_off.(v) + row_off.(v - 1)
      done;
      let fdst = Array.make (max 1 !total) 0 in
      let fwgt = Array.make (max 1 !total) 0 in
      let fdly = Array.make (max 1 !total) 0.0 in
      let pos = ref 0 in
      let copy b len =
        Array.blit b.bdst 0 fdst !pos len;
        Array.blit b.bwgt 0 fwgt !pos len;
        Array.blit b.bdly 0 fdly !pos len;
        pos := !pos + len
      in
      Array.iter
        (function
          | None -> ()
          | Some a ->
            List.iter (fun b -> copy b (Array.length b.bdst)) (List.rev a.full);
            copy a.cur a.clen)
        arenas;
      Streamed
        { fn = n; threshold; fbound = bound; fpinned = pinned; ffar = far_cut; row_off; fdst; fwgt; fdly })

let auto_cutoff = 0

let compute ?(mode = Mode.Auto) ?(pool = Lacr_util.Pool.sequential)
    ?(trace = Lacr_obs.Trace.disabled) ?(extra = []) g =
  match mode with
  | Mode.Dense -> compute_dense ~pool ~trace g
  | Mode.Auto | Mode.Stream -> compute_streamed ~pool ~trace ~pinned:(pinned_vertices g extra) g

let num_vertices = function Dense { w; _ } -> Array.length w | Streamed fr -> fr.fn

(* The probe window the frontier answers exactly: at or above the
   retention threshold (the near band is complete there) and at most
   the min-period search's top candidate, T_init + period_tol (far
   dominance holds there). *)
let in_window fr ~period = period >= fr.threshold && period +. period_tol <= fr.ffar

let frontier_weight fr u v =
  let lo = ref fr.row_off.(u) and hi = ref (fr.row_off.(u + 1) - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let vm = fr.fdst.(mid) in
    if vm = v then found := mid else if vm < v then lo := mid + 1 else hi := mid - 1
  done;
  if !found < 0 then None else Some fr.fwgt.(!found)

let iter_pairs wd f =
  match wd with
  | Dense { w; d } ->
    let n = Array.length w in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if w.(u).(v) <> max_int then f u v w.(u).(v) d.(u).(v)
      done
    done
  | Streamed _ -> invalid_arg "Paths.iter_pairs: dense backend only"

let iter_frontier wd f =
  match wd with
  | Dense _ -> invalid_arg "Paths.iter_frontier: streamed backend only"
  | Streamed fr ->
    for u = 0 to fr.fn - 1 do
      for i = fr.row_off.(u) to fr.row_off.(u + 1) - 1 do
        f u fr.fdst.(i) fr.fwgt.(i) fr.fdly.(i)
      done
    done

(* Order-preserving int key of a non-negative double: its IEEE bits
   minus 2^62 fit an OCaml int ([0, +inf] maps into [-2^62, 2^62 -
   2^52]) and compare like the doubles.  [+. 0.0] folds -0.0 into
   +0.0, which [Float.compare] already equates.  D values are never
   negative: [Graph.create] rejects negative delays. *)
let key_of_delay d = Int64.to_int (Int64.sub (Int64.bits_of_float (d +. 0.0)) 0x4000_0000_0000_0000L)
let delay_of_key k = Int64.float_of_bits (Int64.add (Int64.of_int k) 0x4000_0000_0000_0000L)

(* Number of D values in [lo, hi]; their keys are stored into [keys]
   too unless it is empty. *)
let window_keys wd ~lo ~hi keys =
  let store = Array.length keys > 0 in
  let len = ref 0 in
  (match wd with
  | Dense { w; d } ->
    let n = Array.length w in
    for u = 0 to n - 1 do
      let wrow = w.(u) and drow = d.(u) in
      for v = 0 to n - 1 do
        if wrow.(v) <> max_int then begin
          let x = drow.(v) in
          if x >= lo && x <= hi then begin
            if store then keys.(!len) <- key_of_delay x;
            incr len
          end
        end
      done
    done
  | Streamed fr ->
    for i = 0 to fr.row_off.(fr.fn) - 1 do
      let x = fr.fdly.(i) in
      if x >= lo && x <= hi then begin
        if store then keys.(!len) <- key_of_delay x;
        incr len
      end
    done);
  !len

(* The window is applied before sorting: one counting pass sizes the
   key array, a second fills it, and [Int_sort] sorts the keys in
   place, so the only allocations are the key array and the result. *)
let distinct_delays wd ~lo ~hi =
  let keys = Array.make (window_keys wd ~lo ~hi [||]) 0 in
  let len = window_keys wd ~lo ~hi keys in
  Lacr_util.Int_sort.sort_slice keys ~lo:0 ~hi:len;
  let k = ref 0 in
  for i = 0 to len - 1 do
    if !k = 0 || keys.(i) <> keys.(!k - 1) then begin
      keys.(!k) <- keys.(i);
      incr k
    end
  done;
  let out = Array.make !k 0.0 in
  for i = 0 to !k - 1 do
    out.(i) <- delay_of_key keys.(i)
  done;
  out

(* --- graph-direct dominance pruning ------------------------------- *)

(* The dense greedy prune (the reference the test suite keeps over the
   [Dense] matrices) processes each row's candidates in ascending W
   with equal-W groups in descending index order and drops a candidate
   implied by a kept earlier one:
   W(u,x) + W(x,v) <= W(u,v).  By the triangle inequality that is an
   equality, i.e. x lies on some minimum-weight u ~> v path; and the
   greedy has a history-free characterization (drop v iff ANY
   earlier-ordered candidate implies it — if the implier was itself
   dropped, its earlier implier implies v too, transitively).  A vertex
   lies on a minimum-weight path to v exactly when the tight-edge DAG
   reaches v from it (every edge of a minimum-weight path is tight,
   and any tight path is minimum-weight), so the whole prune for one
   row reduces to reachability marking over the tight DAG — no W
   oracle, no second Dijkstra per implication test.  [tight_sweep]
   runs the row Dijkstra and topologically orders the tight DAG;
   [mark_dominated] then propagates, in one sweep,
     - [spos]: some candidate ancestor precedes the vertex through a
       positive-weight tight path (strictly smaller W, hence earlier
       in the prune order whatever the indices), and
     - [smax]: the largest candidate ancestor connected through a
       zero-weight tight path (equal W, earlier only when its index is
       larger).
   A candidate v is dropped iff [spos] is set or [smax] > v — exactly
   the dense greedy's verdict.  Candidate membership is read from
   [scmem] (current epoch); [squeue] must hold the tight-DAG
   topological order from [tight_sweep]. *)
let mark_dominated sc ~off ~dst ~wgt ~nt =
  let ep = sc.sepoch in
  let wrow = sc.swrow and settled = sc.ssettled in
  let queue = sc.squeue and pos = sc.spos and mx = sc.smax and cmem = sc.scmem in
  for t = 0 to nt - 1 do
    mx.(queue.(t)) <- -1
  done;
  for t = 0 to nt - 1 do
    let x = queue.(t) in
    let px = pos.(x) = ep in
    let mxx = mx.(x) in
    let cx = cmem.(x) = ep in
    let wx = wrow.(x) in
    for i = off.(x) to off.(x + 1) - 1 do
      let y = dst.(i) in
      if settled.(y) = ep && wx + wgt.(i) = wrow.(y) then
        if wgt.(i) > 0 then begin
          if px || cx || mxx >= 0 then pos.(y) <- ep
        end
        else begin
          if px then pos.(y) <- ep;
          let m = if cx && x > mxx then x else mxx in
          if m > mx.(y) then mx.(y) <- m
        end
    done
  done

(* --- flat (zero-list) constraint passes --------------------------- *)

type flat_rows = {
  sr_off : int array;
  sr_dst : int array;
  sr_wgt : int array;
  sr_candidates : int;
  sr_scanned : int;
}

(* Frontier-gated source activity.  Inside the retention window a
   source has a violating pair at [period] iff its frontier row holds a
   retained pair with D > period + period_tol: the near band is
   retained in full, and a dominance-dropped far pair always has a
   retained far ancestor in the same row (its D also clears far_cut >=
   period + period_tol).  Conversely every retained pair past the
   threshold is itself a candidate.  So skipping the Dijkstra sweep for
   inactive sources changes nothing in the emitted rows — it only skips
   sources whose rows would come back empty.  Outside the window
   ([period] below the retention threshold or above the far cut) the
   gate abstains and every source is swept. *)
let frontier_gate fr ~period =
  if in_window fr ~period then begin
    let n = fr.fn in
    let act = Bytes.make n '\000' in
    for u = 0 to n - 1 do
      let i = ref fr.row_off.(u) in
      let hi = fr.row_off.(u + 1) in
      while !i < hi do
        if fr.fdly.(!i) > period +. period_tol then begin
          Bytes.set act u '\001';
          i := hi
        end
        else incr i
      done
    done;
    Some act
  end
  else None

(* Per-source candidate enumeration (and optional dominance pruning)
   written straight into per-chunk arenas and merged into one CSR,
   targets ascending within each row — no per-row lists or pair
   arrays.
   [frontier] enables the activity gate above; [sr_scanned] counts the
   sources actually swept (equal to n when the gate abstains). *)
let source_pass_flat ?(pool = Lacr_util.Pool.sequential) ?frontier ~prune g ~period =
  let n = Graph.num_vertices g in
  let off = Graph.csr_offsets g
  and dst = Graph.csr_dst g
  and wgt = Graph.csr_weight g
  and delays = Graph.delays g in
  let active =
    match frontier with None -> None | Some fr -> frontier_gate fr ~period
  in
  let zorder, zrank = zero_topo_order ~off ~dst ~wgt n in
  let chunk = row_chunk pool n in
  let n_chunks = (n + chunk - 1) / chunk in
  let arenas = Array.make n_chunks None in
  let chunk_cand = Array.make n_chunks 0 in
  let chunk_scanned = Array.make n_chunks 0 in
  let scratches = Array.make Lacr_util.Pool.max_slots None in
  Lacr_util.Pool.parallel_for_chunks ~chunk pool n (fun lo hi ->
      let sc = worker_scratch scratches n in
      let a = Lacr_arena.Chunked.make_pairs ~lo ~rows:(hi - lo) in
      let cands = ref 0 and scanned = ref 0 in
      for u = lo to hi - 1 do
        let skip =
          match active with Some act -> Bytes.get act u = '\000' | None -> false
        in
        if not skip then begin
          incr scanned;
          let nt = tight_sweep sc ~off ~dst ~wgt ~zorder ~zrank u in
          let ep = sc.sepoch in
          let wrow = sc.swrow
          and drow = sc.sdrow
          and settled = sc.ssettled
          and touched = sc.stouched
          and queue = sc.squeue in
          let cmem = sc.scmem and pos = sc.spos and mx = sc.smax in
          for t = 0 to nt - 1 do
            let v = touched.(t) in
            drow.(v) <- neg_infinity;
            mx.(v) <- -1
          done;
          drow.(u) <- delays.(u);
          (* One fused pass in tight-DAG topological order: when x is
             processed, its longest delay, candidacy and dominance
             state are all final (they only read ancestors), so the
             delay relaxation, the candidate test and the
             [mark_dominated] recurrences ride the same edge scan.
             Verdicts are the same DAG fixpoints as three separate
             passes — identical by order-independence. *)
          let nc = ref 0 in
          for t = 0 to nt - 1 do
            let x = queue.(t) in
            let wx = wrow.(x) and dx = drow.(x) in
            let cx = dx > period +. period_tol && (u <> x || wx = 0) in
            if cx then begin
              cmem.(x) <- ep;
              incr nc
            end;
            if prune then begin
              let px = pos.(x) = ep in
              let mxx = mx.(x) in
              for i = off.(x) to off.(x + 1) - 1 do
                let y = dst.(i) in
                if settled.(y) = ep && wx + wgt.(i) = wrow.(y) then begin
                  if dx > neg_infinity then begin
                    let c = dx +. delays.(y) in
                    if c > drow.(y) then drow.(y) <- c
                  end;
                  if wgt.(i) > 0 then begin
                    if px || cx || mxx >= 0 then pos.(y) <- ep
                  end
                  else begin
                    if px then pos.(y) <- ep;
                    let m = if cx && x > mxx then x else mxx in
                    if m > mx.(y) then mx.(y) <- m
                  end
                end
              done
            end
            else if dx > neg_infinity then
              for i = off.(x) to off.(x + 1) - 1 do
                let y = dst.(i) in
                if settled.(y) = ep && wx + wgt.(i) = wrow.(y) then begin
                  let c = dx +. delays.(y) in
                  if c > drow.(y) then drow.(y) <- c
                end
              done
          done;
          cands := !cands + !nc;
          let keep = sc.scand in
          let nk = ref 0 in
          for t = 0 to nt - 1 do
            let v = touched.(t) in
            if cmem.(v) = ep && ((not prune) || (pos.(v) <> ep && mx.(v) <= v)) then begin
              keep.(!nk) <- v;
              incr nk
            end
          done;
          Lacr_util.Int_sort.sort_slice keep ~lo:0 ~hi:!nk;
          Lacr_arena.Chunked.set_count a ~row:u !nk;
          for i = 0 to !nk - 1 do
            let v = keep.(i) in
            Lacr_arena.Chunked.push a v wrow.(v)
          done
        end
      done;
      let ci = lo / chunk in
      arenas.(ci) <- Some a;
      chunk_cand.(ci) <- !cands;
      chunk_scanned.(ci) <- !scanned);
  let sr_off, sr_dst, sr_wgt = Lacr_arena.Chunked.merge arenas ~n in
  {
    sr_off;
    sr_dst;
    sr_wgt;
    sr_candidates = Array.fold_left ( + ) 0 chunk_cand;
    sr_scanned = Array.fold_left ( + ) 0 chunk_scanned;
  }

type flat_cols = { tc_off : int array; tc_src : int array; tc_wgt : int array }

(* The mirrored target-side pass over the source-pass survivors: for a
   fixed target, which surviving sources lie on each other's
   minimum-weight paths to it is tight-DAG ancestry from the target in
   the reversed graph (W is path weight either way round).  Parallel
   over targets with in-place slice compaction.  Surviving
   (source, W) pairs are packed as [W * n + (n - 1 - source)] so an
   ascending int sort of a slice is exactly the dense consider order:
   W ascending, equal weights by descending source index. *)
let prune_target_pass_flat ?(pool = Lacr_util.Pool.sequential) g (sr : flat_rows) =
  let n = Graph.num_vertices g in
  let edges = Graph.edges g in
  let roff = Array.make (n + 1) 0 in
  Array.iter (fun (e : Graph.edge) -> roff.(e.Graph.dst + 1) <- roff.(e.Graph.dst + 1) + 1) edges;
  for v = 1 to n do
    roff.(v) <- roff.(v) + roff.(v - 1)
  done;
  let me = roff.(n) in
  let rdst = Array.make (max 1 me) 0 in
  let rwgt = Array.make (max 1 me) 0 in
  let fill = Array.copy roff in
  Array.iter
    (fun (e : Graph.edge) ->
      let i = fill.(e.Graph.dst) in
      rdst.(i) <- e.Graph.src;
      rwgt.(i) <- e.Graph.weight;
      fill.(e.Graph.dst) <- i + 1)
    edges;
  let msurv = sr.sr_off.(n) in
  let toff = Array.make (n + 1) 0 in
  for i = 0 to msurv - 1 do
    let v = sr.sr_dst.(i) in
    toff.(v + 1) <- toff.(v + 1) + 1
  done;
  for v = 1 to n do
    toff.(v) <- toff.(v) + toff.(v - 1)
  done;
  let tkey = Array.make (max 1 msurv) 0 in
  let tfill = Array.copy toff in
  for u = 0 to n - 1 do
    for i = sr.sr_off.(u) to sr.sr_off.(u + 1) - 1 do
      let v = sr.sr_dst.(i) in
      tkey.(tfill.(v)) <- (sr.sr_wgt.(i) * n) + (n - 1 - u);
      tfill.(v) <- tfill.(v) + 1
    done
  done;
  let kcount = Array.make n 0 in
  let zorder, zrank = zero_topo_order ~off:roff ~dst:rdst ~wgt:rwgt n in
  let scratches = Array.make Lacr_util.Pool.max_slots None in
  Lacr_util.Pool.parallel_for_chunks pool n (fun lo hi ->
      for v = lo to hi - 1 do
        let base = toff.(v) in
        let len = toff.(v + 1) - base in
        (* A lone survivor is never dropped: the tight DAG is acyclic,
           so a source cannot be its own proper ancestor. *)
        if len = 1 then kcount.(v) <- 1
        else if len > 1 then begin
          let sc = worker_scratch scratches n in
          (* Dominance verdicts for this slice only read vertices no
             farther than the slice's largest weight, so the reverse
             sweep is capped there. *)
          let maxw = ref 0 in
          for i = base to base + len - 1 do
            let w = tkey.(i) / n in
            if w > !maxw then maxw := w
          done;
          let nt = tight_sweep ~cap:!maxw sc ~off:roff ~dst:rdst ~wgt:rwgt ~zorder ~zrank v in
          let ep = sc.sepoch in
          let cmem = sc.scmem in
          for i = base to base + len - 1 do
            cmem.(n - 1 - (tkey.(i) mod n)) <- ep
          done;
          mark_dominated sc ~off:roff ~dst:rdst ~wgt:rwgt ~nt;
          let pos = sc.spos and mx = sc.smax in
          let k = ref 0 in
          for i = base to base + len - 1 do
            let key = tkey.(i) in
            let u = n - 1 - (key mod n) in
            if pos.(u) <> ep && mx.(u) <= u then begin
              tkey.(base + !k) <- key;
              incr k
            end
          done;
          Lacr_util.Int_sort.sort_slice tkey ~lo:base ~hi:(base + !k);
          kcount.(v) <- !k
        end
      done);
  let tc_off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    tc_off.(v + 1) <- tc_off.(v) + kcount.(v)
  done;
  let mk = tc_off.(n) in
  let tc_src = Array.make (max 1 mk) 0 in
  let tc_wgt = Array.make (max 1 mk) 0 in
  for v = 0 to n - 1 do
    let src_base = toff.(v) and dst_base = tc_off.(v) in
    for j = 0 to kcount.(v) - 1 do
      let key = tkey.(src_base + j) in
      tc_src.(dst_base + j) <- n - 1 - (key mod n);
      tc_wgt.(dst_base + j) <- key / n
    done
  done;
  { tc_off; tc_src; tc_wgt }
