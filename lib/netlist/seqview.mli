(** Retiming-oriented view of a netlist.

    Flip-flops are removed from the node set and folded into edge
    weights, producing the weighted graph G(V, E) of the paper's §3.1:
    vertices are functional units (primary inputs, combinational gates,
    primary-output ports) carrying a delay; each edge [u -> v] carries
    [w(e)], the number of flip-flops on the connection. *)

type unit_kind =
  | Primary_input
  | Primary_output
  | Logic of Gate.kind

type unit_info = {
  uname : string;  (** signal name; outputs get a ["_po"] suffix *)
  kind : unit_kind;
  delay : float;  (** ns; 0 for ports *)
  area : float;  (** flip-flop equivalents; 0 for ports *)
  fanin : int;
}

type edge = { src : int; dst : int; weight : int  (** flip-flop count *) }

type t = {
  circuit : string;
  units : unit_info array;
  edges : edge array;
  primary_inputs : int list;
  primary_outputs : int list;
}

val of_netlist : Netlist.t -> (t, string) result
(** Collapse flip-flop chains into edge weights.  Fails on a cycle made
    only of flip-flops (a netlist with no combinational unit on some
    feedback loop) and on combinational cycles (zero-weight cycles),
    neither of which a well-formed sequential circuit contains.

    Edge-order contract (relied upon by {!Rebuild}): edges appear in
    the order of the gate signals' declaration, each gate's fan-ins in
    declaration order, followed by one edge per primary output in
    declaration order. *)

val num_units : t -> int
val num_edges : t -> int

val total_ffs : t -> int
(** Sum of edge weights — the paper's N{_F} before retiming. *)

val unit_name : t -> int -> string

val max_fanin : t -> int
val max_fanout : t -> int

val has_combinational_cycle : t -> bool
(** [true] iff some cycle has total edge weight zero. *)
