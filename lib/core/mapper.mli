(** Technology-mapping options, statistics and results.

    The paper's Section 3 pipeline (partition, cover, instantiate) runs
    in {!Incremental}: a session partitions once and {!Incremental.map}
    covers and extracts at one K, returning a [result]. *)

type options = {
  k : float;  (** Congestion minimization factor (Eq. 5). *)
  t : float;
      (** Timing minimization factor (the [T] in
          [AREA + K*WIRE + T*DELAY]): weight of the covered match's
          constant-load arrival estimate, in cost units per ns. Passed to
          {!Cover.options.t} unscaled — cell areas (µm²) and arrival
          times (ns) already sit within an order of magnitude on this
          library, unlike the µm wire term that needs [wire_scale]. [0]
          (the default) reproduces the pre-timing mapper bit for bit. *)
  wire_scale : float;
      (** Unit conversion applied to WIRE before multiplying by [k]. The
          companion placement is in µm; the paper's K ladder (1e-4 .. 1)
          implies distances in finer database units, so WIRE is scaled by
          200 ({!min_area}) to make the paper's K values land in the
          same sensitivity range here. *)
  strategy : Partition.strategy;
  distance : Cals_util.Geom.metric;
      (** Metric of WIRE (Eq. 2) and of PDP's nearest-father choice. *)
  incremental_update : bool;
  include_wire2 : bool;
  transitive_wire : bool;
}

val default_timing_weight : float
(** The [t] used when timing-driven covering is requested without an
    explicit weight ([cals flow --timing], timing-enabled serve jobs).
    Fitted on the golden corpus: small weights only flip exact-cost
    ties (area quanta dwarf [t * delta-arrival]), so the useful regime
    starts where the DP genuinely trades area for arrival — 50 sits
    inside the band (roughly 30..500) where the accepted-K post-route
    critical path improves on {e every} golden design for a cell-area
    overhead under ten percent (the Table 3/5 trend guarded by
    [test_sta]). *)

val min_area : options
(** [k = 0] with DAGON partitioning — the classic baseline mapper. *)

val congestion_aware : k:float -> options
(** The paper's configuration: PDP partitioning + Eq. 5 covering. *)

type stats = {
  cells : int;
  cell_area : float;
  matches_evaluated : int;
  duplicated_gates : int;
  taps : int;
}

type result = {
  mapped : Cals_netlist.Mapped.t;
  stats : stats;
  cover : Cover.t;
}
