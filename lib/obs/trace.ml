(* Structured observability for the planner: nested wall-clock spans,
   monotonic counters and fixed-bucket histograms.

   Determinism contract
   --------------------
   Counters and histograms record into private per-domain scratch
   keyed by [Lacr_util.Pool.worker_slot] (slot 0 = the planner's own
   domain, slots 1.. = pool workers), so the hot paths take no lock
   and share no cache line (slots are padded to 64 bytes).  All
   recorded quantities are integers and every unit of work bumps its
   metric exactly once regardless of which worker claimed it, so the
   slot-order merge produces bit-identical aggregates for every pool
   size.  Spans carry wall-clock timings and are inherently
   run-specific; only their structure (names, nesting, per-track
   monotone timestamps) is stable.

   The disabled context is a constant constructor: every recording
   entry point is a single pattern match that falls through to the
   caller's code, adding no allocation and no work on hot paths. *)

type value =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool

type event = {
  ev_name : string;
  ev_cat : string;
  ev_ts : float;  (* seconds since context creation, monotone per slot *)
  ev_dur : float;  (* seconds *)
  ev_depth : int;  (* nesting depth at open; 0 = top-level *)
  ev_attrs : (string * value) list;
}

type open_span = {
  o_name : string;
  o_cat : string;
  o_start : float;
  o_depth : int;
  mutable o_attrs : (string * value) list;
}

type slot = {
  mutable events : event list;  (* completion order, reversed *)
  mutable stack : open_span list;
  mutable last_ts : float;
}

(* One padded cache line of ints per worker slot. *)
let stride = 8

type counter_cells = {
  c_name : string;
  c_cells : int array;  (* max_slots * stride; slot s uses index s*stride *)
}

type hist_cells = {
  h_name : string;
  h_bounds : int array;  (* sorted inclusive upper bounds *)
  h_stride : int;  (* per-slot segment, >= len bounds + 1, 64B-aligned *)
  h_cells : int array;  (* max_slots * h_stride; trailing cell of each
                           segment group is the overflow bucket at
                           index [len bounds] *)
}

type state = {
  clock : unit -> float;
  t0 : float;
  slots : slot array;
  reg_mutex : Mutex.t;  (* guards the registries only, never the hot paths *)
  mutable counters : counter_cells list;  (* registration order, reversed *)
  mutable histograms : hist_cells list;
}

type ctx =
  | Off
  | On of state

type counter =
  | Cnoop
  | Counter of counter_cells

type histogram =
  | Hnoop
  | Histogram of hist_cells

let disabled = Off

let max_slots = Lacr_util.Pool.max_slots

(* The repo's one wall-clock read.  [create]'s default clock and the
   disabled-context fallback of [clock_of] both alias this binding, so
   exactly one line in the tree touches the ambient clock — everything
   else (planner timings, the serving daemon's latency measurements)
   injects a clock or routes through [clock_of]. *)
let wall_clock () = Unix.gettimeofday ()

let create ?(clock = wall_clock) () =
  let slots =
    Array.init max_slots (fun _ -> { events = []; stack = []; last_ts = 0.0 })
  in
  On
    {
      clock;
      t0 = clock ();
      slots;
      reg_mutex = Mutex.create ();
      counters = [];
      histograms = [];
    }

let enabled = function Off -> false | On _ -> true

(* The collector's clock, for callers that time work outside spans
   (e.g. [Lac.exec_seconds]): the injected clock when the context is
   live, the wall clock otherwise.  This is the repo's single
   clock-injection point — everything else routes through it. *)
let clock_of = function Off -> wall_clock | On state -> state.clock

(* Sanitizer: exported data is only meaningful once every span is
   closed; an unbalanced stack means a with_span-less begin/end pair
   or an exporter called mid-span. *)
let check_balanced state =
  if Lacr_util.Sanitize.enabled () then
    Array.iteri
      (fun s slot ->
        match slot.stack with
        | [] -> ()
        | spans ->
          Lacr_util.Sanitize.fail ~invariant:"trace.span_balance"
            (Printf.sprintf "slot %d has %d open span(s) at export (innermost: %s)" s
               (List.length spans) (List.hd spans).o_name))
      state.slots

(* Per-slot monotone timestamp: the raw clock is clamped to strictly
   increase within a track, so exported traces always carry monotone
   timestamps even if the underlying clock stalls or steps back. *)
let now state slot =
  let t = state.clock () -. state.t0 in
  let t = if t <= slot.last_ts then slot.last_ts +. 1e-9 else t in
  slot.last_ts <- t;
  t

(* --- spans --- *)

let begin_span state ?(cat = "planner") ?(attrs = []) name =
  let slot = state.slots.(Lacr_util.Pool.worker_slot ()) in
  let span =
    {
      o_name = name;
      o_cat = cat;
      o_start = now state slot;
      o_depth = List.length slot.stack;
      o_attrs = attrs;
    }
  in
  slot.stack <- span :: slot.stack

let end_span state =
  let slot = state.slots.(Lacr_util.Pool.worker_slot ()) in
  match slot.stack with
  | [] ->
    if Lacr_util.Sanitize.enabled () then
      Lacr_util.Sanitize.fail ~invariant:"trace.span_balance" "end_span with no open span"
  | span :: rest ->
    slot.stack <- rest;
    let stop = now state slot in
    slot.events <-
      {
        ev_name = span.o_name;
        ev_cat = span.o_cat;
        ev_ts = span.o_start;
        ev_dur = stop -. span.o_start;
        ev_depth = span.o_depth;
        ev_attrs = List.rev span.o_attrs;
      }
      :: slot.events

let with_span ctx ?cat ?attrs name f =
  match ctx with
  | Off -> f ()
  | On state ->
    begin_span state ?cat ?attrs name;
    Fun.protect ~finally:(fun () -> end_span state) f

let span_attr ctx key v =
  match ctx with
  | Off -> ()
  | On state -> (
    let slot = state.slots.(Lacr_util.Pool.worker_slot ()) in
    match slot.stack with
    | [] -> ()
    | span :: _ -> span.o_attrs <- (key, v) :: span.o_attrs)

(* --- counters --- *)

let counter ctx name =
  match ctx with
  | Off -> Cnoop
  | On state ->
    Mutex.lock state.reg_mutex;
    let cells =
      match List.find_opt (fun c -> c.c_name = name) state.counters with
      | Some c -> c
      | None ->
        let c = { c_name = name; c_cells = Array.make (max_slots * stride) 0 } in
        state.counters <- c :: state.counters;
        c
    in
    Mutex.unlock state.reg_mutex;
    Counter cells

let add c n =
  match c with
  | Cnoop -> ()
  | Counter cells ->
    let i = Lacr_util.Pool.worker_slot () * stride in
    cells.c_cells.(i) <- cells.c_cells.(i) + n

let incr c = add c 1

(* --- histograms --- *)

let histogram ctx ~buckets name =
  match ctx with
  | Off -> Hnoop
  | On state ->
    let bounds = Array.copy buckets in
    Array.sort compare bounds;
    Mutex.lock state.reg_mutex;
    let cells =
      match List.find_opt (fun h -> h.h_name = name) state.histograms with
      | Some h -> h
      | None ->
        let per_slot = Array.length bounds + 1 in
        let h_stride = ((per_slot + stride - 1) / stride) * stride in
        let h =
          {
            h_name = name;
            h_bounds = bounds;
            h_stride;
            h_cells = Array.make (max_slots * h_stride) 0;
          }
        in
        state.histograms <- h :: state.histograms;
        h
    in
    Mutex.unlock state.reg_mutex;
    Histogram cells

let observe h v =
  match h with
  | Hnoop -> ()
  | Histogram cells ->
    let bounds = cells.h_bounds in
    let nb = Array.length bounds in
    (* First bucket whose inclusive upper bound admits v; the trailing
       cell is the overflow bucket. *)
    let rec find i = if i >= nb then nb else if v <= bounds.(i) then i else find (i + 1) in
    let bucket = find 0 in
    let i = (Lacr_util.Pool.worker_slot () * cells.h_stride) + bucket in
    cells.h_cells.(i) <- cells.h_cells.(i) + 1

(* --- aggregation (merge in slot order) --- *)

let counter_totals ctx =
  match ctx with
  | Off -> []
  | On state ->
    List.rev_map
      (fun c ->
        let total = ref 0 in
        for s = 0 to max_slots - 1 do
          total := !total + c.c_cells.(s * stride)
        done;
        (c.c_name, !total))
      state.counters
    |> List.sort compare

let histogram_totals ctx =
  match ctx with
  | Off -> []
  | On state ->
    List.rev_map
      (fun h ->
        let nb = Array.length h.h_bounds in
        let counts = Array.make (nb + 1) 0 in
        for s = 0 to max_slots - 1 do
          for b = 0 to nb do
            counts.(b) <- counts.(b) + h.h_cells.((s * h.h_stride) + b)
          done
        done;
        (h.h_name, Array.copy h.h_bounds, counts))
      state.histograms
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

(* Completed events of every slot, each track sorted by start time —
   the exporters' view.  Slots with no events are omitted. *)
let events ctx =
  match ctx with
  | Off -> []
  | On state ->
    check_balanced state;
    let tracks = ref [] in
    for s = max_slots - 1 downto 0 do
      match state.slots.(s).events with
      | [] -> ()
      | evs ->
        let sorted = List.sort (fun a b -> compare a.ev_ts b.ev_ts) evs in
        tracks := (s, sorted) :: !tracks
    done;
    !tracks

(* Aggregated durations of the shallow spans on the planner's own
   track (slot 0), in first-start order: the per-stage summary table
   and the metrics export. *)
let span_summary ?(max_depth = 1) ctx =
  match ctx with
  | Off -> []
  | On state ->
    check_balanced state;
    let evs =
      List.sort
        (fun a b -> compare a.ev_ts b.ev_ts)
        (List.filter (fun e -> e.ev_depth <= max_depth) state.slots.(0).events)
    in
    let order = ref [] and totals = Hashtbl.create 16 in
    List.iter
      (fun e ->
        let key = (e.ev_depth, e.ev_name) in
        (match Hashtbl.find_opt totals key with
        | None ->
          order := key :: !order;
          Hashtbl.add totals key (1, e.ev_dur)
        | Some (count, dur) -> Hashtbl.replace totals key (count + 1, dur +. e.ev_dur)))
      evs;
    List.rev_map
      (fun (depth, name) ->
        let count, dur = Hashtbl.find totals (depth, name) in
        (depth, name, count, dur))
      !order
