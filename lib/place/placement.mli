(** Placement orchestration for the two netlist flavours the flow places.

    - the technology-independent subject graph is placed once per circuit
      (the paper's companion placement; positions feed the mapper's wire
      cost), and
    - each mapped netlist is legalized from the mapper's center-of-mass
      seeds (the incremental-placement aspect of the methodology). *)

type mapped_placement = {
  cell_pos : Cals_util.Geom.point array;  (** Per instance. *)
  pi_pos : Cals_util.Geom.point array;  (** Pad per primary input. *)
  po_pos : Cals_util.Geom.point array;  (** Pad per primary output. *)
  hpwl : float;  (** Half-perimeter wirelength, µm. *)
  row_fill : int array;  (** Occupied sites per row. *)
  nets : Cals_netlist.Mapped.net_table;
      (** The placed netlist's nets, built once: its HPWL, route request
          and timing all read this table. *)
}

val place_subject :
  Cals_netlist.Subject.t ->
  floorplan:Floorplan.t ->
  rng:Cals_util.Rng.t ->
  Cals_util.Geom.point array
(** Companion placement: a position for every subject node (PIs at pads,
    gates by recursive bisection). Continuous coordinates — base gates are
    abstract and uniform, as in the paper. *)

val place_mapped_seeded :
  Cals_netlist.Mapped.t -> floorplan:Floorplan.t -> mapped_placement
(** Legalize the mapper's seed positions onto rows (pads fixed at
    {!Floorplan.pad_positions}). Raises {!Legalize.Overflow} when the
    netlist does not fit. *)

val pin_position : mapped_placement -> int -> Cals_util.Geom.point
(** The position of a {!Cals_netlist.Mapped.net_table} pin id, read from
    [cell_pos], [pi_pos] or [po_pos]. *)
