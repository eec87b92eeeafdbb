(** BLIF (Berkeley Logic Interchange Format) front-end.

    Reads the structural subset of BLIF that maps onto this library's
    netlist model:
    - [.model], [.inputs], [.outputs], [.end];
    - [.latch in out [type ctrl] [init]] — a D flip-flop (the clocking
      type and initial value are accepted and ignored; this planner is
      init-value agnostic);
    - [.names a b ... y] with a single-output cover that this reader
      {e classifies} as one of the supported gate kinds (AND, OR,
      NAND, NOR, NOT, BUF, XOR, XNOR).  Arbitrary covers outside those
      shapes are rejected with a clear error — this is a planner, not
      a logic optimizer.

    Continuation lines ([\\] at end of line) and [#] comments are
    handled.  A writer emits the same subset back. *)

val parse_string : ?name:string -> string -> (Netlist.t, string) result
(** [name] overrides the [.model] name. *)

val parse_file : string -> (Netlist.t, string) result

val to_string : Netlist.t -> string
(** BLIF text whose re-parse is structurally equal to the input. *)
