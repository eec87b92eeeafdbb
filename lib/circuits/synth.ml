module Netlist = Lacr_netlist.Netlist
module Gate = Lacr_netlist.Gate
module Rng = Lacr_util.Rng

type spec = {
  name : string;
  n_inputs : int;
  n_outputs : int;
  n_dffs : int;
  n_gates : int;
  levels : int;
  seed : int;
}

(* ISCAS89 circuits are dominated by NAND/NOR/NOT with a sprinkle of
   AND/OR and rare XORs; the weights below approximate that mix. *)
let pick_kind rng =
  let roll = Rng.int rng 100 in
  if roll < 28 then Gate.Nand
  else if roll < 52 then Gate.Nor
  else if roll < 68 then Gate.Not
  else if roll < 80 then Gate.And
  else if roll < 90 then Gate.Or
  else if roll < 95 then Gate.Buf
  else if roll < 98 then Gate.Xor
  else Gate.Xnor

let fanin_count rng kind =
  match kind with
  | Gate.Not | Gate.Buf -> 1
  | Gate.Xor | Gate.Xnor -> 2
  | Gate.And | Gate.Or | Gate.Nand | Gate.Nor -> 2 + Rng.int rng 3

(* Pick [k] distinct fan-ins, biased towards the previous level to
   control depth, with occasional long-range taps like real circuits
   have.  The whole pool has [n_all] signals, the newest gate first
   and the sources last; [signals] holds it reversed in its first
   [n_all] entries, so the pool's entry [i] is
   [signals.(n_all - 1 - i)]. *)
let pick_fanins rng ~previous ~signals ~n_all k =
  let choose_all () = signals.(n_all - 1 - Rng.int rng n_all) in
  let chosen = Hashtbl.create 8 in
  let result = ref [] in
  let attempts = ref 0 in
  while List.length !result < k && !attempts < 50 do
    incr attempts;
    let candidate =
      if Array.length previous > 0 && Rng.int rng 100 < 60 then Rng.choose rng previous
      else choose_all ()
    in
    if not (Hashtbl.mem chosen candidate) then begin
      Hashtbl.add chosen candidate ();
      result := candidate :: !result
    end
  done;
  (* Small pools can exhaust distinct candidates; a repeated fan-in is
     harmless (it models a multi-input gate tied to one net). *)
  let rec fill acc = if List.length acc >= k then acc else fill (choose_all () :: acc) in
  fill !result

let generate spec =
  if spec.n_inputs <= 0 then invalid_arg "Synth.generate: n_inputs";
  if spec.n_outputs <= 0 then invalid_arg "Synth.generate: n_outputs";
  if spec.n_gates <= 0 then invalid_arg "Synth.generate: n_gates";
  if spec.n_dffs < 0 then invalid_arg "Synth.generate: n_dffs";
  if spec.levels <= 0 then invalid_arg "Synth.generate: levels";
  let rng = Rng.create (spec.seed lxor Hashtbl.hash spec.name) in
  let builder = Netlist.Builder.create ~name:spec.name in
  let pis = Array.init spec.n_inputs (fun i -> Printf.sprintf "pi%d" i) in
  Array.iter (Netlist.Builder.add_input builder) pis;
  let ff_outs = Array.init spec.n_dffs (fun i -> Printf.sprintf "ff%d" i) in
  (* Gates are generated level by level; level-0 sources are the
     primary inputs and the flip-flop outputs (defined at the end,
     once their data sources exist). *)
  let sources = Array.append pis ff_outs in
  let per_level = max 1 (spec.n_gates / spec.levels) in
  let gate_names = Array.init spec.n_gates (fun i -> Printf.sprintf "g%d" i) in
  (* The fan-in pool, reversed (see [pick_fanins]): the sources in
     reverse order, then the gates in creation order.  One array for
     the whole run; gate [g] draws from its first [n_sources + g]
     entries. *)
  let n_sources = Array.length sources in
  let signals = Array.make (n_sources + spec.n_gates) "" in
  Array.iteri (fun i s -> signals.(n_sources - 1 - i) <- s) sources;
  (* Every signal consumed by some gate or register, to pick
     primary outputs among the otherwise-unobservable sinks. *)
  let fanin_seen : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let previous_level = ref sources in
  let level_of_gate = Array.make spec.n_gates 0 in
  let current = ref [] in
  let flush_level () =
    if !current <> [] then begin
      previous_level := Array.of_list !current;
      current := []
    end
  in
  for g = 0 to spec.n_gates - 1 do
    let level = min (spec.levels - 1) (g / per_level) in
    level_of_gate.(g) <- level;
    if g > 0 && level <> level_of_gate.(g - 1) then flush_level ();
    let kind = pick_kind rng in
    let k = fanin_count rng kind in
    let fanins = pick_fanins rng ~previous:!previous_level ~signals ~n_all:(n_sources + g) k in
    List.iter (fun f -> Hashtbl.replace fanin_seen f ()) fanins;
    Netlist.Builder.add_gate builder gate_names.(g) kind fanins;
    signals.(n_sources + g) <- gate_names.(g);
    current := gate_names.(g) :: !current
  done;
  (* Flip-flop data inputs: most state registers close feedback loops
     through a moderate slice of the logic (real next-state functions
     are a few levels deep, not the whole cone — a full-depth loop with
     one register would lock the clock period at the loop delay and
     leave retiming no freedom); about a quarter of the registers are
     chained behind another register, the shift-register structures
     ISCAS circuits are full of. *)
  let band_lo = spec.n_gates / 4 in
  let band_hi = max (band_lo + 1) ((spec.n_gates * 3) / 5) in
  let feed_ff i =
    if i > 0 && Rng.int rng 100 < 25 then begin
      let data = ff_outs.(Rng.int rng i) in
      Hashtbl.replace fanin_seen data ();
      Netlist.Builder.add_dff builder ff_outs.(i) ~data
    end
    else begin
      let g = band_lo + Rng.int rng (band_hi - band_lo) in
      let data = gate_names.(min g (spec.n_gates - 1)) in
      Hashtbl.replace fanin_seen data ();
      Netlist.Builder.add_dff builder ff_outs.(i) ~data
    end
  in
  Array.iteri (fun i _ -> feed_ff i) ff_outs;
  (* Primary outputs: prefer gates nothing else consumes, so the
     circuit carries little unobservable logic (like the real ISCAS
     netlists); fill up with random gates if needed.  When more dead
     sinks exist than output pins, OR-trees would be needed to expose
     them all — instead any remaining unobservable logic is simply a
     property of the instance, reported by [Lacr_netlist.Sweep]. *)
  let n_out = min spec.n_outputs spec.n_gates in
  let unused =
    Array.to_list gate_names
    |> List.filter (fun g -> not (Hashtbl.mem fanin_seen g))
    |> Array.of_list
  in
  Rng.shuffle rng unused;
  let rest = Array.copy gate_names in
  Rng.shuffle rng rest;
  let chosen = Hashtbl.create 16 in
  let emit g =
    if (not (Hashtbl.mem chosen g)) && Hashtbl.length chosen < n_out then begin
      Hashtbl.add chosen g ();
      Netlist.Builder.mark_output builder g
    end
  in
  Array.iter emit unused;
  Array.iter emit rest;
  match Netlist.Builder.finish builder with
  | Ok netlist -> netlist
  | Error msg -> invalid_arg (Printf.sprintf "Synth.generate: internal error: %s" msg)

(* --- hierarchical composition ---------------------------------------- *)

type hier_spec = {
  name : string;
  n_inputs : int;
  n_outputs : int;
  n_gates : int;  (** total across all blocks *)
  n_blocks : int;
  cluster_blocks : int;
  block_levels : int;
  stitch_width : int;
  seed : int;
}

(* One seeded block of levelized logic, written into the shared
   builder.  The signal pool is a flat preallocated array (the
   flat-list rebuild of [generate] is O(gates^2) and would dominate at
   10^5 gates); fan-ins are drawn from the previous level 60% of the
   time, from the whole pool otherwise, like the flat generator.

   Three structural choices serve the streamed path engine:

   - Gates are *defined* in level order (so fan-in picks see their
     predecessors) but *inserted* into the builder deepest level
     first, giving every combinational fan-in a larger unit index than
     its consumer.  The streamed frontier's far-dominance rule can
     then collapse a far zero-weight cone onto its entry points,
     keeping the per-source frontier proportional to the delay-horizon
     crossing shell instead of the whole downstream block chain.

   - Every gate is guaranteed a combinational consumer on the next
     level (unconsumed gates are appended round-robin to the following
     level's fan-in lists), and the block ends in a narrow *collector*
     level of [n_collect] gates that consumes the whole deepest
     regular level.  Every maximal combinational path therefore ends
     at one of a handful of known collectors instead of at whatever
     gate the random picks happened to leave fanout-free.

   - The chain root [g0] consumes *every* external feed, and
     [generate_hier] registers each collector back into the same
     block's [g0].  Each collector then closes a one-register cycle
     whose delay is the full route-plus-chain path that reaches it —
     so the maximum cycle ratio (the streamed frontier's retention
     threshold) tracks the clock period to within route-tail noise,
     even though routed-wire delay dwarfs gate delay and the critical
     path's endpoint is decided by route draws the generator cannot
     see.  Without the funnel the worst path typically ends at an
     unsampled gate and the bound lags the period by the spread of the
     route-delay tail (tens of percent at 10^4 units), which fattens
     the near band the frontier must retain in full. *)
let emit_block builder rng ~prefix ~ext ~taps ~n_collect ~n_gates ~n_dffs ~levels =
  let n_ext = Array.length ext in
  let ffs = Array.init n_dffs (fun i -> Printf.sprintf "%s_ff%d" prefix i) in
  let pool = Array.make (n_ext + n_dffs + n_gates) "" in
  Array.blit ext 0 pool 0 n_ext;
  let len = ref n_ext in
  (* Feedback registers join the pool at mid-depth, not level 0: an
     FF-output route's tail is combinational (edge weights ride the
     first segment), and a consumer in the shallow levels would
     prepend nearly the whole chain to that tail — a clock-period
     candidate no single-register cycle matches (the matching loop
     through the collector return averages two chains).  Consumers at
     level >= levels/2 cap the continuation at half a chain, keeping
     FF paths dominated by the collector loop. *)
  let ffs_at = max 1 (levels / 2) in
  let ffs_in = ref false in
  let n_reg = n_gates - n_collect - 1 in
  let per_level = max 1 (n_reg / levels) in
  let gname = Array.init n_gates (fun i -> Printf.sprintf "%s_g%d" prefix i) in
  let level_of g = min (levels - 1) (g / per_level) in
  let top_level = level_of (n_reg - 1) in
  let defs = Array.make n_gates (Gate.Buf, [ "" ]) in
  let consumed : (string, unit) Hashtbl.t = Hashtbl.create (2 * n_gates) in
  let prev_lo = ref 0 and prev_hi = ref !len in
  let cur_lo = ref !len in
  (* Gate-index bounds of the level being defined and the level below
     it, for the fanout-forcing pass at each level boundary. *)
  let lvl_gate_lo = ref 0 in
  let prev_gate_lo = ref 0 and prev_gate_hi = ref 0 in
  let rr = ref 0 in
  let close_level ghi =
    if ghi > !lvl_gate_lo then begin
      for p = !prev_gate_lo to !prev_gate_hi - 1 do
        if not (Hashtbl.mem consumed gname.(p)) then begin
          let t = !lvl_gate_lo + (!rr mod (ghi - !lvl_gate_lo)) in
          incr rr;
          let kind, fanins = defs.(t) in
          defs.(t) <- (kind, gname.(p) :: fanins);
          Hashtbl.replace consumed gname.(p) ()
        end
      done;
      prev_gate_lo := !lvl_gate_lo;
      prev_gate_hi := ghi;
      lvl_gate_lo := ghi
    end
  in
  for g = 0 to n_reg - 1 do
    if g > 0 && level_of g <> level_of (g - 1) then begin
      if !len > !cur_lo then begin
        prev_lo := !cur_lo;
        prev_hi := !len;
        cur_lo := !len
      end;
      if (not !ffs_in) && level_of g >= ffs_at then begin
        Array.blit ffs 0 pool !len n_dffs;
        len := !len + n_dffs;
        ffs_in := true;
        cur_lo := !len
      end;
      close_level g
    end;
    let kind = pick_kind rng in
    let k = fanin_count rng kind in
    let pick () =
      if !prev_hi > !prev_lo && Rng.int rng 100 < 60 then
        pool.(!prev_lo + Rng.int rng (!prev_hi - !prev_lo))
      else pool.(Rng.int rng !len)
    in
    let fanins = ref [] in
    let attempts = ref 0 in
    while List.length !fanins < k && !attempts < 50 do
      incr attempts;
      let c = pick () in
      if not (List.mem c !fanins) then fanins := c :: !fanins
    done;
    let rec fill acc =
      if List.length acc >= k then acc else fill (pool.(Rng.int rng !len) :: acc)
    in
    let base = fill !fanins in
    (* Depth chain: the first gate of each level consumes the first
       gate of the level below, guaranteeing one full-depth path per
       block; the chain root consumes every external feed, so each
       registered stub both starts a full-depth combinational path and
       sits on the collector-return cycles. *)
    let withforced =
      if g = 0 then Array.to_list ext @ List.filter (fun c -> not (Array.mem c ext)) base
      else if g = level_of g * per_level && level_of g <= top_level then
        let f = gname.(g - per_level) in
        if List.mem f base then base else f :: base
      else base
    in
    defs.(g) <- (kind, withforced);
    List.iter (fun f -> Hashtbl.replace consumed f ()) withforced;
    pool.(!len) <- gname.(g);
    incr len
  done;
  close_level n_reg;
  (* Collector level: gate [n_reg + i] consumes every gate of the
     deepest regular level whose index is congruent to [i], and a
     final super-collector consumes all the collectors — the whole
     block funnels into one known endpoint.  One endpoint means one
     return route: the clock period and the collector-return cycle
     then pair the same worst chain with the same tail, instead of
     the period cross-pairing the longest chain with the longest of
     many return tails (route tails spread by tens of percent, and
     that spread would reopen the bound-to-period gap). *)
  for i = 0 to n_collect - 1 do
    let fanins = ref [] in
    Array.iteri (fun j t -> if j mod n_collect = i then fanins := t :: !fanins) taps;
    let p = ref (!prev_gate_lo + i) in
    while !p < !prev_gate_hi do
      fanins := gname.(!p) :: !fanins;
      p := !p + n_collect
    done;
    let fanins = if !fanins = [] then [ gname.(n_reg - 1) ] else !fanins in
    defs.(n_reg + i) <- (pick_kind rng, fanins);
    List.iter (fun f -> Hashtbl.replace consumed f ()) fanins
  done;
  defs.(n_gates - 1) <-
    (pick_kind rng, Array.to_list (Array.init n_collect (fun i -> gname.(n_reg + i))));
  Hashtbl.replace consumed gname.(n_gates - 1) ();
  (* Deepest level first: combinational ancestors get larger unit
     indices than their consumers (the builder resolves the forward
     references at [finish]). *)
  for g = n_gates - 1 downto 0 do
    let kind, fanins = defs.(g) in
    Netlist.Builder.add_gate builder gname.(g) kind fanins
  done;
  (* Block-local register feedback, the same moderate-depth band and
     shift-chain mix as the flat generator. *)
  let band_lo = n_gates / 4 in
  let band_hi = max (band_lo + 1) (n_gates * 3 / 5) in
  Array.iteri
    (fun i ff ->
      if i > 0 && Rng.int rng 100 < 25 then
        Netlist.Builder.add_dff builder ff ~data:ffs.(Rng.int rng i)
      else begin
        let g = band_lo + Rng.int rng (band_hi - band_lo) in
        Netlist.Builder.add_dff builder ff ~data:gname.(min g (n_gates - 1))
      end)
    ffs;
  gname

let hier_spec ?(seed = 1_000_003) ~units name =
  if units < 256 then invalid_arg "Synth.hier_spec: units must be >= 256";
  let n_inputs = 32 in
  (* ~1500 gates per block keeps each block's generation cost and
     combinational depth bounded no matter how large [units] grows;
     clusters of 2 blocks cap sequential reachability (and with it the
     streamed engine's per-source sweep cost) independently of the
     total block count. *)
  let n_blocks = max 1 ((units - n_inputs - 32) / 1500) in
  let cluster_blocks = 2 in
  let n_clusters = (n_blocks + cluster_blocks - 1) / cluster_blocks in
  (* Every cluster must observe at least one primary output or dead
     logic removal would erase it whole. *)
  let n_outputs = max 32 n_clusters in
  let n_gates = units - n_inputs - n_outputs in
  {
    name;
    n_inputs;
    n_outputs;
    n_gates;
    n_blocks;
    cluster_blocks;
    block_levels = 12;
    stitch_width = 48;
    seed;
  }

let generate_hier (h : hier_spec) =
  if h.n_inputs <= 0 then invalid_arg "Synth.generate_hier: n_inputs";
  if h.n_outputs <= 0 then invalid_arg "Synth.generate_hier: n_outputs";
  if h.n_blocks <= 0 then invalid_arg "Synth.generate_hier: n_blocks";
  if h.cluster_blocks <= 0 then invalid_arg "Synth.generate_hier: cluster_blocks";
  if h.block_levels <= 0 then invalid_arg "Synth.generate_hier: block_levels";
  if h.stitch_width <= 0 then invalid_arg "Synth.generate_hier: stitch_width";
  let n_clusters = (h.n_blocks + h.cluster_blocks - 1) / h.cluster_blocks in
  let pool_gates = h.n_gates - (n_clusters * (h.n_inputs + 1)) in
  let base = pool_gates / h.n_blocks and extra = pool_gates mod h.n_blocks in
  if base < max h.n_outputs h.stitch_width then
    invalid_arg "Synth.generate_hier: blocks too small for stitch/output width";
  let builder = Netlist.Builder.create ~name:h.name in
  let pis = Array.init h.n_inputs (fun i -> Printf.sprintf "pi%d" i) in
  Array.iter (Netlist.Builder.add_input builder) pis;
  let gates_of b = base + if b < extra then 1 else 0 in
  (* Collector-level width of block [b] (see [emit_block]): narrow
     enough that registering every collector back into the chain root
     stays a small fan-in, wide enough to taper a full level. *)
  let collect_of b = min 16 (max 1 (gates_of b / h.block_levels)) in
  (* Blocks compose in registered chains of at most [cluster_blocks]:
     within a cluster each block's deepest gates drive DFF
     interconnect stubs that feed the next block, so combinational
     depth stays that of one block while registers grow with the
     chain.  Clusters do not feed each other — every cluster starts
     from the primary inputs and exposes its own slice of the primary
     outputs — so sequential reachability (the streamed engine's
     per-source sweep cost) is capped by one cluster regardless of
     the total size. *)
  for c = 0 to n_clusters - 1 do
    let b_lo = c * h.cluster_blocks in
    let b_hi = min h.n_blocks (b_lo + h.cluster_blocks) - 1 in
    (* Terminate the primary-input feeds per cluster in buffer
       *gates* and funnel them through one combiner before
       registering: pad-to-cluster routes can be arbitrarily long on
       a large die, and a plain DFF stub cannot clip them —
       flip-flops fold into routed-edge weights (carried on the
       first segment only), so the rest of a pad route stays
       combinational and would prepend to the block chain while
       lying on no cycle.  A placed unit ends each routed edge
       instead, and the single combiner leaves exactly one registered
       entry route into the chain root.  Both are charged to the gate
       budget. *)
    let combiner = Printf.sprintf "in%d_c" c in
    let bufs =
      Array.mapi
        (fun i pi ->
          let gate = Printf.sprintf "in%d_g%d" c i in
          Netlist.Builder.add_gate builder gate Gate.Buf [ pi ];
          gate)
        pis
    in
    Netlist.Builder.add_gate builder combiner Gate.Nand (Array.to_list bufs);
    let entry = Printf.sprintf "in%d_0" c in
    Netlist.Builder.add_dff builder entry ~data:combiner;
    let entries = [| entry |] in
    (* The return stitch closes the cluster into a registered ring:
       the last block's super-collector feeds block 0 through a DFF
       stub (declared below, once that block exists — the builder
       resolves forward references), so the cluster is strongly
       connected through its registers. *)
    let returns = [| Printf.sprintf "x%d_r0" c |] in
    (* Cross-block feeds (forward stitches, and the ring return) tap
       the *collectors* of the receiving block, not its chain root: an
       inter-block route's tail is combinational (edge weights ride
       the first segment), and routed lengths between separately
       placed blocks are at the floorplan's mercy — one congested net
       entering the chain root would prepend its tail to a whole block
       chain and set the clock period, while every cycle through it
       must average that tail with a second crossing.  Entering at a
       collector caps the continuation at two gates, so inter-block
       route tails can never outrun the per-block collector loops that
       the cycle-ratio bound is built on. *)
    let taps = ref returns in
    let last_gates = ref [||] in
    for b = b_lo to b_hi do
      let n_gates = gates_of b in
      let rng = Rng.create ((h.seed + (1_000_003 * b)) lxor Hashtbl.hash h.name) in
      (* Collector return: the block's super-collector feeds a
         register that re-enters this same block's chain root (a
         forward reference the builder resolves at [finish]).  Every
         maximal combinational path of the block ends at the
         super-collector, so each closes a one-register cycle through
         the single return route — which is what pins the cycle-ratio
         lower bound to the clock period. *)
      let self = [| Printf.sprintf "b%d_s" b |] in
      let ext = if b = b_lo then Array.append entries self else self in
      let gates =
        emit_block builder rng
          ~prefix:(Printf.sprintf "b%d" b)
          ~ext ~taps:!taps ~n_collect:(collect_of b) ~n_gates
          ~n_dffs:(max 1 (n_gates / 8)) ~levels:h.block_levels
      in
      Netlist.Builder.add_dff builder self.(0) ~data:gates.(n_gates - 1);
      if b < b_hi then begin
        let w = min h.stitch_width n_gates in
        taps :=
          Array.init w (fun i ->
              let stub = Printf.sprintf "x%d_%d" b i in
              Netlist.Builder.add_dff builder stub ~data:gates.(n_gates - w + i);
              stub)
      end;
      last_gates := gates
    done;
    (* This cluster's slice of the primary outputs, taken from its
       deepest block so the whole cluster stays observable. *)
    let gates = !last_gates in
    let n = Array.length gates in
    Netlist.Builder.add_dff builder returns.(0) ~data:gates.(n - 1);
    (* Primary outputs observe the cluster through registered stubs:
       a pad route is combinational past its first segment, so an
       unregistered output marked on a deep gate would extend the
       clock period by a route no cycle contains. *)
    let o_lo = c * h.n_outputs / n_clusters and o_hi = (c + 1) * h.n_outputs / n_clusters in
    for i = o_lo to o_hi - 1 do
      let stub = Printf.sprintf "po%d" i in
      Netlist.Builder.add_dff builder stub ~data:gates.(n - (o_hi - o_lo) + (i - o_lo));
      Netlist.Builder.mark_output builder stub
    done
  done;
  match Netlist.Builder.finish builder with
  | Ok netlist -> netlist
  | Error msg -> invalid_arg (Printf.sprintf "Synth.generate_hier: internal error: %s" msg)

let random_spec rng ~name =
  {
    name;
    n_inputs = 2 + Rng.int rng 6;
    n_outputs = 1 + Rng.int rng 4;
    n_dffs = 1 + Rng.int rng 8;
    n_gates = 10 + Rng.int rng 60;
    levels = 2 + Rng.int rng 6;
    seed = Rng.int rng 1_000_000;
  }
