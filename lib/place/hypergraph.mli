(** Placement hypergraph: movable cells, fixed terminals (pads), nets.

    Built from the technology-independent subject graph: the paper's
    companion placement of base gates, all of comparable size. (A mapped
    netlist is legalized, not bisected; {!Placement.place_mapped_seeded}
    reads its {!Cals_netlist.Mapped.net_table} directly.) *)

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

val span_hpwl : Cals_util.Geom.point array -> int array -> int -> int -> float
(** [span_hpwl pos pins lo hi]: the half-perimeter of the bounding box of
    [pos.(pins.(i))] for [lo <= i < hi] (at least one pin), folded as
    [Geom.bbox_add] would, so it is bit-identical to that fold. *)
