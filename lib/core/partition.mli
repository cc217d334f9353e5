(** DAG partitioning into trees (the paper's Section 3.1).

    The subject DAG is broken into a forest by assigning each gate at most
    one [father] among its fanouts; the edge to the father is the only edge
    a covering match may cross. Three strategies:

    - {b Dagon}: every multi-fanout gate is a tree root (Keutzer).
    - {b Cone}: the father is the first fanout that reaches the gate in a
      DFS from the primary outputs — MIS-style cones, whose result depends
      on the output order (the drawback the paper points out).
    - {b Pdp}: placement-driven partitioning — the father is the
      geometrically nearest fanout on the companion placement (Figure 2).

    Primary-output drivers are always roots. *)

type strategy =
  | Dagon
  | Cone
  | Pdp

type t = {
  father : int option array;
      (** Per subject node; [None] for roots, primary inputs and dead
          gates. *)
  live : bool array;  (** Reachable from some primary output. *)
  roots : int list;
      (** All tree roots (fatherless live gates): primary-output drivers
          plus the strategy's split points, in increasing node order. *)
}

val run :
  strategy ->
  Cals_netlist.Subject.t ->
  positions:Cals_util.Geom.point array ->
  distance:Cals_util.Geom.metric ->
  t
(** [positions] and [distance] are only consulted by [Pdp]. *)
