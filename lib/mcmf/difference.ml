type constr = { a : int; b : int; bound : int }

(* Feasibility: constraint x(a) - x(b) <= c is the shortest-path
   relaxation dist(a) <= dist(b) + c, i.e. an edge b -> a of weight c.
   Starting every node at 0 emulates a zero-cost virtual source.  The
   relaxation loop runs over flat int arrays: feasibility probes inside
   min-period binary search hit systems with hundreds of thousands of
   constraints, where list traversal dominates.  The arrays live in a
   [scratch] so a series of probes over the same nodes reuses them. *)
type scratch = {
  dist : int array;
  pred : int array;
  mark : int array;
  mutable next_base : int;
}

let scratch n =
  { dist = Array.make n 0; pred = Array.make n (-1); mark = Array.make n 0; next_base = 1 }

let scratch_labels s = s.dist

let feasible_in s ~a ~b ~bound ~m =
  let dist = s.dist and pred = s.pred and mark = s.mark in
  let n = Array.length dist in
  Array.fill dist 0 n 0;
  (* Predecessor of the last relaxation into each node: a cycle in
     this graph implies a negative constraint cycle (exact integer
     arithmetic, so the classic implication holds with no tolerance
     caveat).  Checking it once per round after a short warm-up lets
     infeasible probes exit after about one cycle length of rounds
     instead of the full n — on 10^5-vertex systems the difference
     between milliseconds and minutes.  Feasible systems converge
     exactly as before, so the returned labelling is unchanged.  Marks
     below the current walk's base count as unvisited, so [mark] needs
     no clearing between walks or probes. *)
  Array.fill pred 0 n (-1);
  let pred_has_cycle () =
    let base = s.next_base in
    s.next_base <- base + n;
    let found = ref false in
    let v = ref 0 in
    while (not !found) && !v < n do
      if mark.(!v) < base then begin
        let token = base + !v in
        let x = ref !v in
        let walking = ref true in
        while !walking do
          if !x < 0 then walking := false
          else if mark.(!x) >= base then begin
            if mark.(!x) = token then found := true;
            walking := false
          end
          else begin
            mark.(!x) <- token;
            x := pred.(!x)
          end
        done
      end;
      incr v
    done;
    !found
  in
  let changed = ref true in
  let negative = ref false in
  let rounds = ref 0 in
  while !changed && (not !negative) && !rounds <= n do
    changed := false;
    incr rounds;
    for i = 0 to m - 1 do
      let nd = dist.(b.(i)) + bound.(i) in
      if nd < dist.(a.(i)) then begin
        dist.(a.(i)) <- nd;
        pred.(a.(i)) <- b.(i);
        changed := true
      end
    done;
    if !changed && !rounds > 32 then negative := pred_has_cycle ()
  done;
  not (!changed || !negative)

let feasible_arrays ~n ~a ~b ~bound ~m =
  let s = scratch n in
  if feasible_in s ~a ~b ~bound ~m then Some s.dist else None

type objective_error =
  | Infeasible_constraints
  | Unbounded_objective

(* Compiled instance: the constraint system proven feasible exactly
   once, with the min-cost-flow network built exactly once.  Constraint
   arcs (and hence all arc costs) never change afterwards —
   [reoptimize] only rewrites the node supplies from a new objective,
   which is what lets the flow engine reuse its residual network, CSR
   adjacency, scratch buffers and previous optimum across the LAC
   re-weighting rounds. *)
type instance = { inst_n : int; net : Mcmf.t }

(* Box constraints |x(v) - x(0)| <= guard keep the LP bounded in every
   direction; an optimum that pins against one is reported as
   [Unbounded_objective], which callers treat as a modelling error. *)
let guard n = (4 * n) + 8

let compile_arrays ~n ~a:ca ~b:cb ~bound:cbound m =
  match feasible_arrays ~n ~a:ca ~b:cb ~bound:cbound ~m with
  | None -> Error Infeasible_constraints
  | Some _ ->
    (* LP dual (cf. Mcmf doc): constraint x(a) - x(b) <= c becomes an
       uncapacitated arc a -> b with cost c; node supply is
       -objective(v) (we minimize, the flow dual maximizes); the
       optimal assignment is x = -potentials. *)
    let net = Mcmf.create n in
    for i = 0 to m - 1 do
      ignore (Mcmf.add_arc net ~src:ca.(i) ~dst:cb.(i) ~capacity:infinity ~cost:cbound.(i))
    done;
    let guard = guard n in
    for v = 1 to n - 1 do
      ignore (Mcmf.add_arc net ~src:v ~dst:0 ~capacity:infinity ~cost:guard);
      ignore (Mcmf.add_arc net ~src:0 ~dst:v ~capacity:infinity ~cost:guard)
    done;
    Ok { inst_n = n; net }

let reoptimize ?trace inst ~objective =
  if Array.length objective <> inst.inst_n then
    invalid_arg "Difference.reoptimize: objective arity";
  (* The assignment is normalized to x(0) = 0 afterwards, so the LP
     objective may be shifted to sum to zero (making it invariant
     under uniform translation); this balances the flow supplies. *)
  let total = ref 0.0 in
  for v = 0 to inst.inst_n - 1 do
    total := !total +. objective.(v)
  done;
  for v = 0 to inst.inst_n - 1 do
    let coeff = if v = 0 then objective.(v) -. !total else objective.(v) in
    Mcmf.set_supply inst.net v (-.coeff)
  done;
  match Mcmf.solve ?trace inst.net with
  | Error (Mcmf.Negative_cycle | Mcmf.Infeasible | Mcmf.Unbalanced _) ->
    (* Guards make the flow feasible and feasibility was checked at
       compile time, so any failure here indicates an unbalanced
       objective. *)
    Error Unbounded_objective
  | Ok () ->
    (* x = -potentials, normalized so that x(0) = 0. *)
    let pi0 = Mcmf.potential inst.net 0 in
    let labels = Array.init inst.inst_n (fun v -> pi0 - Mcmf.potential inst.net v) in
    let guard = guard inst.inst_n in
    if Array.exists (fun l -> abs l >= guard) labels then Error Unbounded_objective
    else Ok labels

let solver_stats inst = Mcmf.last_stats inst.net

let check constraints x =
  List.for_all (fun { a; b; bound } -> x.(a) - x.(b) <= bound) constraints

let check_arrays ~a ~b ~bound ~m x =
  let ok = ref true in
  for i = 0 to m - 1 do
    if x.(a.(i)) - x.(b.(i)) > bound.(i) then ok := false
  done;
  !ok
