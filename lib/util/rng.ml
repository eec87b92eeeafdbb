type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* splitmix64 finalizer: xor-shift multiply mix of the advanced state. *)
let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = bits64 t in
  { state = seed }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.shift_right_logical (bits64 t) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let int_in t lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let mask53 = Int64.shift_right_logical (bits64 t) 11 in
  let unit = Int64.to_float mask53 /. 9007199254740992.0 in
  unit *. bound

let bool t = Int64.logand (bits64 t) 1L = 1L

let choose t arr =
  if Array.length arr = 0 then invalid_arg "Rng.choose: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let gaussian t ~mean ~stddev =
  let rec draw () =
    let u1 = float t 1.0 in
    if u1 <= 1e-12 then draw () else u1
  in
  let u1 = draw () in
  let u2 = float t 1.0 in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  mean +. (stddev *. z)
