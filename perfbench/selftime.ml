(* Self time by span name over one traced run.

   A span's self time is its duration minus the durations of its
   direct children, so the self times of every span on the planner's
   track add up to its top-level spans exactly once.  Spans recorded
   on pool worker tracks overlap the planner track in wall time; they
   are summed apart and never enter that balance. *)

module Trace = Lacr_obs.Trace
module Smap = Map.Make (String)

type t = {
  self : float Smap.t;
  inclusive : float Smap.t;
  count : int Smap.t;
  top : float;  (** duration of the top-level spans of the planner track *)
  worker_tracks : float;  (** span seconds recorded on pool worker tracks *)
}

let bump_f key v m = Smap.update key (fun o -> Some (v +. Option.value o ~default:0.0)) m
let bump_i key v m = Smap.update key (fun o -> Some (v + Option.value o ~default:0)) m

let of_events events =
  (* Events arrive in start order; a span's parent is the nearest open
     span of smaller depth. *)
  let self = ref Smap.empty and inclusive = ref Smap.empty and count = ref Smap.empty in
  let close (e, children) =
    let ev = e.Trace.ev_name in
    self := bump_f ev (e.Trace.ev_dur -. children) !self;
    inclusive := bump_f ev e.Trace.ev_dur !inclusive;
    count := bump_i ev 1 !count
  in
  let rec pop_to depth = function
    | ((e, _) as top) :: rest when e.Trace.ev_depth >= depth ->
      close top;
      pop_to depth rest
    | stack -> stack
  in
  let stack =
    List.fold_left
      (fun stack e ->
        match pop_to e.Trace.ev_depth stack with
        | (p, children) :: rest -> (e, 0.0) :: (p, children +. e.Trace.ev_dur) :: rest
        | [] -> [ (e, 0.0) ])
      [] events
  in
  List.iter close stack;
  let top =
    List.fold_left
      (fun acc e -> if e.Trace.ev_depth = 0 then acc +. e.Trace.ev_dur else acc)
      0.0 events
  in
  (!self, !inclusive, !count, top)

let of_trace ctx =
  let tracks = Trace.events ctx in
  let planner = match List.assoc_opt 0 tracks with Some evs -> evs | None -> [] in
  let self, inclusive, count, top = of_events planner in
  let worker_tracks =
    List.fold_left
      (fun acc (slot, evs) ->
        if slot = 0 then acc
        else List.fold_left (fun a e -> a +. e.Trace.ev_dur) acc evs)
      0.0 tracks
  in
  { self; inclusive; count; top; worker_tracks }

let self t name = Option.value (Smap.find_opt name t.self) ~default:0.0
let inclusive t name = Option.value (Smap.find_opt name t.inclusive) ~default:0.0
let count t name = Option.value (Smap.find_opt name t.count) ~default:0
let self_total t = Smap.fold (fun _ v acc -> acc +. v) t.self 0.0

(* The balance the per-span table must satisfy: self times add up to
   the top-level spans, up to float rounding. *)
let balanced t = Float.abs (self_total t -. t.top) <= 1e-9 *. Float.max 1.0 t.top

let rows t = Smap.bindings t.self
