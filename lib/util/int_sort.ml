(* In-place ascending sort of an int-array slice: median-of-three
   quicksort bottoming out in insertion sort.  Monomorphic comparisons
   (no closure call per compare) and no allocation — the hot paths
   sort millions of small slices (per-source candidate rows, per-target
   survivor slices), where [Array.sub]+[Array.sort]+blit costs a heap
   block and a closure-driven compare per element pair.  The
   [int array] annotation is what makes the comparisons monomorphic:
   without it [sort] is polymorphic and every [<] and [>] calls
   [caml_lessthan]/[caml_greaterthan]. *)

let rec sort (a : int array) lo hi =
  let len = hi - lo in
  if len <= 12 then begin
    for i = lo + 1 to hi - 1 do
      let x = a.(i) in
      let j = ref (i - 1) in
      while !j >= lo && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done
  end
  else begin
    let p1 = a.(lo) and p2 = a.(lo + (len / 2)) and p3 = a.(hi - 1) in
    let pivot =
      if p1 < p2 then (if p2 < p3 then p2 else if p1 < p3 then p3 else p1)
      else if p1 < p3 then p1
      else if p2 < p3 then p3
      else p2
    in
    let i = ref lo and j = ref (hi - 1) in
    while !i <= !j do
      while a.(!i) < pivot do
        incr i
      done;
      while a.(!j) > pivot do
        decr j
      done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    sort a lo (!j + 1);
    sort a !i hi
  end

let sort_slice a ~lo ~hi =
  if lo < 0 || hi > Array.length a || lo > hi then invalid_arg "Int_sort.sort_slice";
  sort a lo hi
