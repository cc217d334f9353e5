(** Recursive min-cut bisection global placement.

    Regions are split alternately along their longer dimension with an FM
    bipartition; nets crossing the region boundary pull nodes toward the
    appropriate half through fixed anchor terminals (terminal propagation).
    This is the "initial placement of the technology-independent netlist"
    of the paper's Section 3 — it only needs to capture connectivity, so
    positions are continuous (legalization is a separate step).

    One call allocates one scratch sized to the root region: a local-id
    array over the hypergraph nodes, the node ids with each region a
    slice, a stack of net ids with each region's nets a slice, and one
    {!Fm.scratch}. A region's FM problem is its nodes in slice order,
    then the two anchors, and its nets with a pin in it in reverse slice
    order, each net's pins as [anchor1; anchor0; local pins in reverse
    pin order] (anchors only where the net reaches outside, on that
    side). Each child's slice holds its side's nodes in reverse order,
    and its nets are the problem's nets with a pin on its side, in
    problem order. These orders, with the RNG draws of {!Fm.run}, fix the
    positions bit for bit. *)

val place :
  Hypergraph.t ->
  floorplan:Floorplan.t ->
  rng:Cals_util.Rng.t ->
  Cals_util.Geom.point array
(** Positions for every hypergraph node; fixed nodes keep their pad
    position. *)
