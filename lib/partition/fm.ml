type problem = {
  n_cells : int;
  areas : float array;
  nets : int array array;
}

let validate p =
  if p.n_cells <= 0 then Error "no cells"
  else if Array.length p.areas <> p.n_cells then Error "areas arity mismatch"
  else if Array.exists (fun a -> a <= 0.0) p.areas then Error "non-positive cell area"
  else if
    Array.exists (fun net -> Array.exists (fun c -> c < 0 || c >= p.n_cells) net) p.nets
  then Error "net pin out of range"
  else Ok ()

let cut_size p side =
  let cut net =
    let on0 = Array.exists (fun c -> side.(c) = 0) net in
    let on1 = Array.exists (fun c -> side.(c) = 1) net in
    on0 && on1
  in
  Array.fold_left (fun acc net -> if cut net then acc + 1 else acc) 0 p.nets

let side_areas p side =
  let a = [| 0.0; 0.0 |] in
  Array.iteri (fun c s -> a.(s) <- a.(s) +. p.areas.(c)) side;
  (a.(0), a.(1))

type options = { balance_tolerance : float; max_passes : int }

let default_options = { balance_tolerance = 0.1; max_passes = 12 }

(* Gain-bucket structure: doubly linked lists per gain value, with the
   classic max-gain pointer that only moves down. *)
type buckets = {
  offset : int;  (* gain g lives at index g + offset *)
  heads : int array;  (* cell id or -1 *)
  next : int array;
  prev : int array;
  gain : int array;  (* current gain per cell *)
  mutable max_gain : int;
}

let buckets_create n max_deg =
  {
    offset = max_deg;
    heads = Array.make ((2 * max_deg) + 1) (-1);
    next = Array.make n (-1);
    prev = Array.make n (-1);
    gain = Array.make n 0;
    max_gain = -max_deg;
  }

let bucket_insert b cell g =
  let idx = g + b.offset in
  b.gain.(cell) <- g;
  b.prev.(cell) <- -1;
  b.next.(cell) <- b.heads.(idx);
  if b.heads.(idx) >= 0 then b.prev.(b.heads.(idx)) <- cell;
  b.heads.(idx) <- cell;
  if g > b.max_gain then b.max_gain <- g

let bucket_remove b cell =
  let idx = b.gain.(cell) + b.offset in
  if b.prev.(cell) >= 0 then b.next.(b.prev.(cell)) <- b.next.(cell)
  else b.heads.(idx) <- b.next.(cell);
  if b.next.(cell) >= 0 then b.prev.(b.next.(cell)) <- b.prev.(cell);
  b.next.(cell) <- -1;
  b.prev.(cell) <- -1

let bucket_update b cell g =
  bucket_remove b cell;
  bucket_insert b cell g

(* The best unlocked cell of maximal gain whose move keeps balance. *)
let bucket_pick b ~locked ~movable =
  let rec scan idx =
    if idx < 0 then None
    else begin
      let rec walk cell =
        if cell < 0 then None
        else if (not locked.(cell)) && movable cell then Some cell
        else walk b.next.(cell)
      in
      match walk b.heads.(idx) with
      | Some cell -> Some cell
      | None -> scan (idx - 1)
    end
  in
  scan (b.max_gain + b.offset)

let bipartition rng p =
  let options = default_options in
  (match validate p with Ok () -> () | Error msg -> invalid_arg ("Fm.bipartition: " ^ msg));
  let n = p.n_cells in
  let total_area = Array.fold_left ( +. ) 0.0 p.areas in
  let min_side = (0.5 -. options.balance_tolerance) *. total_area in
  (* Random initial assignment, alternating by shuffled order to start
     roughly balanced by area. *)
  let order = Array.init n (fun i -> i) in
  Lacr_util.Rng.shuffle rng order;
  let side = Array.make n 0 in
  let areas = [| 0.0; 0.0 |] in
  Array.iter
    (fun c ->
      let s = if areas.(0) <= areas.(1) then 0 else 1 in
      side.(c) <- s;
      areas.(s) <- areas.(s) +. p.areas.(c))
    order;
  let cell_nets = Array.make n [] in
  Array.iteri
    (fun ni net -> Array.iter (fun c -> cell_nets.(c) <- ni :: cell_nets.(c)) net)
    p.nets;
  (* Deduplicate: a cell appearing twice on a net must count once. *)
  Array.iteri (fun c lst -> cell_nets.(c) <- List.sort_uniq compare lst) cell_nets;
  let max_deg =
    max 1 (Array.fold_left (fun acc lst -> max acc (List.length lst)) 1 cell_nets)
  in
  let pins_on = Array.make_matrix (Array.length p.nets) 2 0 in
  let recount_pins () =
    Array.iteri
      (fun ni net ->
        pins_on.(ni).(0) <- 0;
        pins_on.(ni).(1) <- 0;
        Array.iter (fun c -> pins_on.(ni).(side.(c)) <- pins_on.(ni).(side.(c)) + 1) net)
      p.nets
  in
  let gain_of c =
    let s = side.(c) in
    let tally acc ni =
      let net = p.nets.(ni) in
      let mine = pins_on.(ni).(s) and other = pins_on.(ni).(1 - s) in
      (* Count this cell's multiplicity on the net. *)
      let mult = Array.fold_left (fun m pc -> if pc = c then m + 1 else m) 0 net in
      let acc = if mine = mult && other > 0 then acc + 1 else acc in
      if other = 0 && mine > mult then acc - 1 else acc
    in
    List.fold_left tally 0 cell_nets.(c)
  in
  let run_pass () =
    recount_pins ();
    let b = buckets_create n max_deg in
    b.max_gain <- -max_deg;
    for c = 0 to n - 1 do
      bucket_insert b c (gain_of c)
    done;
    let locked = Array.make n false in
    let movable c =
      let s = side.(c) in
      areas.(s) -. p.areas.(c) >= min_side
    in
    let best_cut = ref (cut_size p side) in
    let moves = ref [] in
    let best_prefix = ref 0 in
    let current_cut = ref !best_cut in
    let n_moves = ref 0 in
    let continue = ref true in
    while !continue do
      match bucket_pick b ~locked ~movable with
      | None -> continue := false
      | Some c ->
        bucket_remove b c;
        locked.(c) <- true;
        let s = side.(c) in
        current_cut := !current_cut - b.gain.(c);
        side.(c) <- 1 - s;
        areas.(s) <- areas.(s) -. p.areas.(c);
        areas.(1 - s) <- areas.(1 - s) +. p.areas.(c);
        let update ni =
          let net = p.nets.(ni) in
          pins_on.(ni).(s) <- pins_on.(ni).(s) - 1;
          pins_on.(ni).(1 - s) <- pins_on.(ni).(1 - s) + 1;
          Array.iter (fun pc -> if not locked.(pc) then bucket_update b pc (gain_of pc)) net
        in
        List.iter update cell_nets.(c);
        incr n_moves;
        moves := c :: !moves;
        if !current_cut < !best_cut then begin
          best_cut := !current_cut;
          best_prefix := !n_moves
        end
    done;
    (* Roll back moves beyond the best prefix. *)
    let all_moves = Array.of_list (List.rev !moves) in
    for i = Array.length all_moves - 1 downto !best_prefix do
      let c = all_moves.(i) in
      let s = side.(c) in
      side.(c) <- 1 - s;
      areas.(s) <- areas.(s) -. p.areas.(c);
      areas.(1 - s) <- areas.(1 - s) +. p.areas.(c)
    done;
    !best_prefix > 0
  in
  let rec iterate pass prev_cut =
    if pass >= options.max_passes then ()
    else begin
      let improved = run_pass () in
      let now = cut_size p side in
      if improved && now < prev_cut then iterate (pass + 1) now
    end
  in
  iterate 0 (cut_size p side);
  side
