(** Placement hypergraph: movable cells, fixed terminals (pads), nets.

    Built either from the technology-independent subject graph (the paper's
    companion placement of base gates, all of comparable size) or from a
    mapped netlist (cells with real widths). *)

type t = {
  weights : int array;  (** Width in sites per node. *)
  fixed : Cals_util.Geom.point option array;  (** [Some p]: pad at [p]. *)
  nets : int array array;  (** Each net lists its node ids (>= 2 pins). *)
}

val num_nodes : t -> int
(** Movable and fixed nodes together. *)

val of_subject :
  Cals_netlist.Subject.t ->
  floorplan:Floorplan.t ->
  t * int array
(** Nodes [0 .. num_nodes-1] mirror subject node ids (PIs fixed at pads);
    one extra fixed node per primary output (its pad). The returned array
    maps each primary-output index to its pad node id. *)

val of_mapped :
  Cals_netlist.Mapped.t ->
  floorplan:Floorplan.t ->
  t * int array * int array
(** Node layout: first all cell instances (movable), then PI pads, then PO
    pads (both fixed). Returns [(graph, pi_pad_ids, po_pad_ids)]. *)

val hpwl : t -> Cals_util.Geom.point array -> float
(** Total half-perimeter wirelength of all nets under the given positions:
    each net's bounding-box half-perimeter, summed from [0.] in net order. *)
