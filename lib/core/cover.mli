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

type objective =
  | Min_area  (** Eq. 1: cell area (the paper's experiments). *)
  | Min_delay of { load_pf : float }
      (** Rudell-style constant-load delay covering: the primary figure of
          merit is the match's worst arrival time, assuming every cell
          output drives [load_pf]. The paper's prototype supports delay
          objectives alongside area (Section 4, first paragraph). *)

type options = {
  k : float;  (** The congestion minimization factor. *)
  t : float;
      (** The timing minimization factor: weight of the constant-load
          arrival estimate in the match cost. [0] (the default) prices
          pure Eq. 5 and is bit-identical to the pre-timing DP — the
          arrival term is [t *. arrival_ns], which is exactly [0.] then,
          and adding [0.] never changes a finite positive cost. *)
  objective : objective;
  distance : Cals_util.Geom.point -> Cals_util.Geom.point -> float;
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
(** Covering state: one chosen solution per live gate. *)

(** {2 K-independent match sets}

    Pattern matching is purely structural: a candidate binding depends on
    the subject graph, the partition and the library, but not on K, the
    companion placement or the DP state. A K-schedule sweep can therefore
    enumerate matches once and re-run only the cost-combination DP per K
    point — the incremental engine ({!Incremental}) caches these per
    partition tree. *)

type candidate = {
  cand_cell : Cals_cell.Cell.t;
  cand_leaves : int array;  (** Subject node per pattern variable. *)
  cand_covered : int list;  (** Base gates the match consumes. *)
}

type node_matches = {
  candidates : candidate array;
      (** In exact (cell, pattern, binding) enumeration order; the DP's
          tie-breaking depends on this order. *)
  enumerated : int;
      (** Raw bindings enumerated (including rejected ones), so that
          {!matches_evaluated} is identical whether or not a cache was
          used. *)
}

type matchset = node_matches option array
(** Indexed by subject node; [None] for primary inputs and dead gates. *)

val match_node :
  Cals_netlist.Subject.t ->
  library:Cals_cell.Library.t ->
  partition:Partition.t ->
  int ->
  node_matches
(** All structural candidates at one live gate. *)

val run :
  ?matchsets:matchset ->
  Cals_netlist.Subject.t ->
  library:Cals_cell.Library.t ->
  partition:Partition.t ->
  positions:Cals_util.Geom.point array ->
  options ->
  t
(** With [matchsets] the enumeration phase is skipped wherever the array
    has an entry (holes fall back to {!match_node}); the result — chosen
    solutions, costs, tie-breaks and [matches_evaluated] — is bit-identical
    to a cold run, because the DP consumes candidates in the same order
    either way. The caller must pass a matchset computed against the same
    subject, library and partition. *)

val solution : t -> int -> solution option
(** The chosen match at a live gate ([None] for PIs / dead gates). *)

val matches_evaluated : t -> int
(** Raw pattern bindings enumerated during the run (the paper's Table 2
    "matches" column) — identical with and without a warm match cache,
    see {!node_matches.enumerated}. *)

type extraction = {
  mapped : Cals_netlist.Mapped.t;
  duplicated_gates : int;
      (** Base gates materialized more than once (logic duplication). *)
  taps : int;  (** Cross-tree references served without duplication. *)
}

val extract : t -> extraction
(** Instantiate cells for every needed signal. *)

val check_coverage : t -> (unit, string) result
(** Every live gate must be covered by some instantiated match. *)
