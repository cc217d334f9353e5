(** Millisecond congestion forecasting from placement.

    The flow's bottleneck is the negotiated global route it pays at every
    K point of the schedule, on a *different* netlist each time — routing
    is far too slow to sit inside an optimization loop. This module
    forecasts the router's verdict directly from the placed netlist, in
    the spirit of RUDY-style probabilistic congestion estimation: each
    net's half-perimeter wirelength is spread uniformly over the gcells
    its bounding box covers (wire demand), pins add a per-gcell escape
    term (pin demand), and the demand map is compared against the exact
    per-gcell supply the router's grid would offer. The whole forecast
    is a handful of linear passes over the nets and the grid:
    microseconds to low milliseconds, versus seconds for a negotiated
    route. It reads the router's own input, one
    {!Cals_route.Router.Request.t}, and folds its supply from the
    router's {!val:Cals_route.Rgrid.track_model}, so the two can never
    disagree on a pin gcell or a capacity.

    The forecast feeds a calibrated three-way {!verdict}. Thresholds are
    fitted on the golden corpus and the bench presets against the real
    router (see DESIGN.md, Section 4k): a {e confident} [Unroutable] lets
    {!Cals_core.Flow.evaluate_k} skip the negotiated route entirely,
    [Uncertain] points route for real, and an accepted K is always
    confirmed by a real route — the estimator can only ever prune
    rejections, never certify an acceptance. *)

type verdict =
  | Routable  (** Confidently under capacity everywhere. *)
  | Unroutable  (** Confidently over capacity; predicted violations > 0. *)
  | Uncertain  (** Near the boundary (or degenerate input): route for real. *)

(** How {!Cals_core.Flow.evaluate_k} uses the forecast at one K point. *)
type policy =
  | Off
      (** Never forecast; the point pays a real route. The unpruned
          baseline the bench and the tests measure pruning against. *)
  | Prune
      (** Forecast first; a confident [Unroutable] skips the real route
          (recording the estimated report), everything else routes. The
          adaptive K search's confirming routes. *)
  | Triage
      (** Estimator-only: the point never routes for real, and the
          forecast is recorded as its report. The adaptive search's
          bisection probes, and the batch service's deepest degradation
          rung — results are explicitly marked estimated. *)

type maps = {
  cols : int;
  rows : int;  (** Same grid the router would build ({!Cals_route.Rgrid.dims}). *)
  gcell_um : float;
  wire_density : Cals_util.Grid2d.t;
      (** Demand: expected track-lengths of wire per gcell (RUDY spread
          plus the pin escape term). *)
  pin_density : Cals_util.Grid2d.t;  (** Pins per gcell. *)
  supply : Cals_util.Grid2d.t;
      (** Track-lengths each gcell can host: the router's
          {!val:Cals_route.Rgrid.track_model} summed over both directions. *)
  utilization : Cals_util.Grid2d.t;  (** [demand / supply] per gcell. *)
}

type forecast = {
  maps : maps;
  overflow_score : float;
      (** Sum over gcells of [max 0 (demand - supply)], in track units —
          the estimator's counterpart of the router's total overflow. *)
  normalized_overflow : float;
      (** [overflow_score / total supply]; scale-free, what the verdict
          thresholds are calibrated on. *)
  peak_utilization : float;  (** Largest per-gcell [demand / supply]. *)
  hot_fraction : float;
      (** Gcells above {!Cals_route.Congestion.hot_threshold}. *)
  predicted_violations : int;
      (** Rounded overflow score damped by {!negotiation_relief} — the
          router negotiates demand away from hotspots, so raw RUDY
          overflow overestimates the post-negotiation residual. *)
  hpwl_um : float;  (** Summed net HPWL (the wirelength stand-in). *)
  verdict : verdict;
}

val forecast : Cals_route.Router.Request.t -> forecast
(** Forecast the request's nets, scoring exactly the pins, gcells and
    density the router would route. Never raises on degenerate input —
    empty net arrays, single-pin nets, zero-area bounding boxes and
    single-gcell grids all produce a forecast whose verdict is
    [Uncertain] when the numbers cannot be trusted: a grid of at most
    four gcells, no supply, or no net spanning two gcells. *)

val forecast_mapped :
  ?config:Cals_route.Router.config ->
  Cals_netlist.Mapped.t ->
  floorplan:Cals_place.Floorplan.t ->
  wire:Cals_cell.Library.wire_model ->
  placement:Cals_place.Placement.mapped_placement ->
  forecast
(** {!forecast} of {!Cals_route.Router.Request.of_mapped}. *)

val report : forecast -> Cals_route.Congestion.report
(** The forecast as a congestion report, so a skipped K point records in
    the same shape as a routed one: [violations] is
    [predicted_violations], [total_overflow] the overflow score,
    [wirelength_um] the HPWL stand-in. *)

(** {2 Calibration constants}

    Fitted once against the real router on the golden corpus and the
    SPLA/PDC bench presets (DESIGN.md, Section 4k records the fitting
    table). Exposed so tests can assert the calibration's soundness
    margins rather than hard-coding copies. *)

val pin_track_cost : float
(** Track-lengths of escape routing charged per pin (0.125). *)

val negotiation_relief : float
(** Fraction of raw RUDY overflow the negotiated router is expected to
    resolve; damps [predicted_violations] (0.5). *)

val unroutable_min_norm : float
(** Normalized overflow at or above which the verdict is [Unroutable]. *)

val routable_max_norm : float
(** Normalized overflow at or below which the verdict may be [Routable]. *)

val routable_max_peak : float
(** Peak utilization a [Routable] verdict additionally requires. *)

val verdict_of_scores :
  degenerate:bool -> normalized_overflow:float -> peak_utilization:float -> verdict
(** The threshold logic alone, exposed for tests ([degenerate:true]
    forces [Uncertain]). *)

val verdict_to_string : verdict -> string

