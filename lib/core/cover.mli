(** Placement-driven tree covering (the paper's Section 3.2).

    Dynamic programming over the partitioned subject graph. The cost of a
    match [m] at vertex [v] is

    {v COST(m,v) = AREA(m,v) + K * WIRE(m,v) + T * DELAY(m,v) v}

    where [AREA] is the cell area plus the area cost of the fanin covers
    (Eq. 1), [WIRE1] sums the distances between the match's center of mass
    and its fanins' centers of mass (Eq. 2), [WIRE2] adds the fanins'
    memoized wire costs (Eq. 3), and the total wire cost is their sum
    [WIRE(m,v) = WIRE1(m,v) + WIRE2(m,v)] (Eq. 4). With [T = 0] this is
    exactly the paper's Eq. 5; [DELAY] is the match's constant-load
    arrival estimate (see {!solution.arrival_ns}), so a positive [T]
    trades area and wire against logic depth — the multi-objective cost
    behind the paper's Table 3/5 post-route timing claims. Once a match
    is selected, the covered base gates' positions collapse to the center
    of mass (the incremental companion-placement update). With [K = 0]
    and [T = 0] this is classic DAGON min-area covering.

    Instantiation walks the chosen matches from every needed signal
    (primary-output drivers and cross-tree leaf references); a multi-fanout
    vertex swallowed inside a match is re-instantiated from its own DP
    solution, reproducing MIS-style logic duplication. *)

type options = {
  k : float;  (** The congestion minimization factor. *)
  t : float;
      (** The timing minimization factor: weight of the constant-load
          arrival estimate in the match cost. [0] (the default) prices
          pure Eq. 5 and is bit-identical to the pre-timing DP — the
          arrival term is [t *. arrival_ns], which is exactly [0.] then,
          and adding [0.] never changes a finite positive cost. *)
  distance : Cals_util.Geom.metric;
  incremental_update : bool;  (** Center-of-mass position collapsing. *)
  include_wire2 : bool;  (** Eq. 3 term (off = WIRE1-only ablation). *)
  transitive_wire : bool;
      (** Pedram-Bhat-style variant: charge the distance from the match to
          every base gate of its transitive fanin instead of Eq. 2/3 —
          implements the comparison of the paper's Section 3.3. *)
}

type solution = {
  cell : Cals_cell.Cell.t;
  leaves : int array;  (** Subject node per pattern variable. *)
  covered : int list;  (** Base gates consumed by the match. *)
  area_cost : float;
  wire_cost : float;
  arrival_ns : float;  (** Constant-load arrival estimate at this output. *)
  cost : float;
  com : Cals_util.Geom.point;
}

type t
(** Covering state: per subject node, the chosen candidate of the table
    ([-1] for PIs and dead gates) and its area, wire, arrival and cost
    figures and center of mass, each in a flat array. *)

val run :
  Matches.table ->
  partition:Partition.t ->
  positions:Cals_util.Geom.point array ->
  options ->
  t
(** The cost-combination DP over a candidate table: the table must hold
    every live gate of [partition] (enumerated against the same
    partition); a missing one raises [Invalid_argument]. The result
    depends only on the candidates and their order, so a table filled
    from the store maps bit-identically to a freshly enumerated one. *)

val solution : t -> int -> solution option
(** The chosen match at a node ([None] for PIs / dead gates), built on
    demand. *)

val matches_evaluated : t -> int
(** Raw pattern bindings enumerated for the covered gates (the paper's
    Table 2 "matches" column) — the same however the table was filled,
    see the [enumerated] field of {!Matches.table}. *)

type extraction = {
  mapped : Cals_netlist.Mapped.t;
  duplicated_gates : int;
      (** Base gates materialized more than once (logic duplication). *)
  taps : int;  (** Cross-tree references served without duplication. *)
  cover_counts : int array;
      (** Per subject node: instances whose match covers it. *)
}

val extract : t -> extraction
(** Instantiate cells for every needed signal. *)

val check_coverage : t -> extraction -> (unit, string) result
(** Every live gate must be covered by some instantiated match of the
    extraction. *)
