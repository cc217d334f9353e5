(** Recursive min-cut bisection global placement.

    Regions are split alternately along their longer dimension with an FM
    bipartition; nets crossing the region boundary pull nodes toward the
    appropriate half through fixed anchor terminals (terminal propagation).
    This is the "initial placement of the technology-independent netlist"
    of the paper's Section 3 — it only needs to capture connectivity, so
    positions are continuous (legalization is a separate step). *)

val place :
  Hypergraph.t ->
  floorplan:Floorplan.t ->
  rng:Cals_util.Rng.t ->
  Cals_util.Geom.point array
(** Positions for every hypergraph node; fixed nodes keep their pad
    position. *)
