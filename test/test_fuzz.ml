(* Mutation fuzzing of the parsers that read outside input: the
   daemon's request lines (Protocol over Jsonx) and the two netlist
   formats.  Each case starts from a valid input and applies a few
   byte-level edits — deletes, inserts, replacements and truncations —
   biased toward the characters the grammars act on.  Every mutant
   must come back as [Ok] or [Error], never as an exception; a parsed
   netlist must also get through the sequential view and levelization
   the planner runs next. *)

module Gen = QCheck2.Gen
module Jsonx = Lacr_obs.Jsonx
module Protocol = Lacr_serve.Protocol
module Bench_io = Lacr_netlist.Bench_io
module Blif_io = Lacr_netlist.Blif_io
module Seqview = Lacr_netlist.Seqview
module Levelize = Lacr_netlist.Levelize
module Suite = Lacr_circuits.Suite

type edit =
  | Delete of int
  | Insert of int * char
  | Replace of int * char
  | Truncate of int

(* JSON and netlist punctuation, number syntax, escapes, line breaks
   and keyword letters; any other byte at a lower rate. *)
let steering = "{}[]\":,\\-+.eE0123456789 \t\n\r=()#/_truefalsn"

let char_gen =
  let steer = Gen.map (String.get steering) (Gen.int_bound (String.length steering - 1)) in
  Gen.frequency [ (3, steer); (1, Gen.char) ]

(* Positions are drawn before the text is known and taken modulo its
   length when the edit is applied. *)
let edit_gen =
  let pos = Gen.int_bound 1_000_000 in
  Gen.frequency
    [
      (3, Gen.map (fun p -> Delete p) pos);
      (3, Gen.map2 (fun p c -> Insert (p, c)) pos char_gen);
      (3, Gen.map2 (fun p c -> Replace (p, c)) pos char_gen);
      (1, Gen.map (fun p -> Truncate p) pos);
    ]

let apply text edit =
  let n = String.length text in
  match edit with
  | Delete p when n > 0 ->
    let i = p mod n in
    String.sub text 0 i ^ String.sub text (i + 1) (n - i - 1)
  | Insert (p, c) ->
    let i = p mod (n + 1) in
    String.sub text 0 i ^ String.make 1 c ^ String.sub text i (n - i)
  | Replace (p, c) when n > 0 ->
    let i = p mod n in
    String.mapi (fun j x -> if j = i then c else x) text
  | Truncate p -> String.sub text 0 (p mod (n + 1))
  | Delete _ | Replace _ -> text

let mutant_gen seeds =
  Gen.map2
    (fun seed edits -> List.fold_left apply seed edits)
    (Gen.oneofl seeds)
    (Gen.list_size (Gen.int_range 1 8) edit_gen)

let never_raises ~name seeds run =
  QCheck2.Test.make ~count:1000 ~name ~print:String.escaped (mutant_gen seeds) (fun text ->
      match run text with
      | Ok () | Error _ -> true
      | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e))

let requests =
  [
    {|{"id": 1, "method": "plan", "params": {"circuit": "s27", "second_iteration": false}}|};
    {|{"id": 42, "method": "stats", "params": {"circuit": "s1423"}}|};
    {|{"id": -7, "method": "metrics"}|};
    {|{"id": 3, "method": "plan", "params": {"circuit": "hier:2000", "stall_ms": 250}}|};
  ]

let documents =
  requests
  @ [
      {|[1.5e3, -0.25, 0, "a\"b\\cA\n", null, true, false, {"k": [[], {}, [{"x": 1E-2}]]}]|};
      {|{"id": null, "error": {"code": "bad_request", "message": "invalid JSON: at 3"}}|};
    ]

let prop_protocol =
  never_raises ~name:"mutated request lines never raise in Protocol" requests (fun line ->
      Result.map
        (fun (r : Protocol.request) ->
          ignore (Protocol.param_str r.Protocol.params "circuit" : string option);
          ignore (Protocol.param_int r.Protocol.params "stall_ms" : int option);
          ignore (Protocol.param_bool r.Protocol.params "second_iteration" : bool option))
        (Protocol.parse_request line))

let prop_jsonx =
  never_raises ~name:"mutated documents never raise in Jsonx" documents (fun text ->
      Result.map ignore (Jsonx.parse text))

(* A parsed netlist goes on to the planner's first two consumers. *)
let through_levelize parsed =
  Result.map ignore (Result.bind (Result.bind parsed Seqview.of_netlist) Levelize.stats)

let netlists = [ Suite.s27 (); Option.get (Suite.by_name "s298") ]

let prop_bench =
  never_raises ~name:"mutated .bench texts never raise in Bench_io"
    (Suite.s27_text :: List.map Bench_io.to_string netlists)
    (fun text -> through_levelize (Bench_io.parse_string ~name:"fuzz" text))

let prop_blif =
  never_raises ~name:"mutated .blif texts never raise in Blif_io"
    (List.map Blif_io.to_string netlists)
    (fun text -> through_levelize (Blif_io.parse_string text))

let suite =
  List.map QCheck_alcotest.to_alcotest [ prop_protocol; prop_jsonx; prop_bench; prop_blif ]
