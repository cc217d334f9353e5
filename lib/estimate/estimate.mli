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

    The forecast feeds a three-way {!verdict}. [Unroutable] is not a
    fit but a proof: the request's {!Cals_route.Router.Cut} certificate
    shows some cut line carries more segment crossings than its floored
    capacity, so no route of it is clean (DESIGN.md, Section 4k). That
    lets {!Cals_core.Flow.evaluate_k} skip the negotiated route
    entirely. [Routable] is the one fitted band. The adaptive search
    never reads it (its probes stop only on [Unroutable] or a failed
    legalization); its one effect is acceptance under [Triage], the
    estimator-only rung of [cals serve] (degradation level 3), where a
    [Routable] point may be accepted without a route. Everywhere else
    [Uncertain] and [Routable] points route for real, and an accepted K
    is confirmed by a real route — there the estimator can only prune
    proven rejections, never certify an acceptance. *)

type verdict =
  | Routable  (** Confidently under capacity everywhere. *)
  | Unroutable
      (** Certified by a cut line: every route of the request has
          violations, and [predicted_violations] is a lower bound on them. *)
  | Uncertain  (** Near the boundary (or degenerate input): route for real. *)

(** How {!Cals_core.Flow.evaluate_k} uses the forecast at one K point. *)
type policy =
  | Off
      (** Never forecast; the point pays a real route. The unpruned
          baseline the bench and the tests measure pruning against. *)
  | Prune
      (** Forecast first; a certified [Unroutable] skips the real route
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
      (** [overflow_score / total supply]; scale-free, what the
          [Routable] thresholds are calibrated on. *)
  peak_utilization : float;  (** Largest per-gcell [demand / supply]. *)
  hot_fraction : float;
      (** Gcells above {!Cals_route.Congestion.hot_threshold}. *)
  predicted_violations : int;
      (** [0] when [Routable]; {!Cals_route.Router.Cut.violations} (a
          sound lower bound) when [Unroutable]; otherwise the rounded
          overflow score damped by a fixed relief factor (0.5) — the router
          negotiates demand away from hotspots, so raw RUDY overflow
          overestimates the post-negotiation residual. *)
  hpwl_um : float;  (** Summed net HPWL (the wirelength stand-in). *)
  cut : Cals_route.Router.Cut.t;  (** The request's cut certificate. *)
  verdict : verdict;
}

val forecast : Cals_route.Router.Request.t -> forecast
(** Forecast the request's nets, scoring exactly the pins, gcells and
    density the router would route. Never raises on degenerate input —
    empty net arrays, single-pin nets, zero-area bounding boxes and
    single-gcell grids all produce a forecast. The verdict is
    [Unroutable] iff [cut] is certified; otherwise it is [Uncertain]
    when the scores cannot be trusted (a grid of at most four gcells, no
    supply, or no net spanning two gcells) and {!verdict_of_scores}
    else. *)

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

    The [Routable] band and the [Uncertain] damping, fitted once against
    the real router on the golden corpus. [Unroutable] has no constant:
    it is {!Cals_route.Router.Cut}'s proof. Exposed so tests read the
    values rather than hard-coding copies. *)

val routable_max_peak : float
(** Peak utilization a [Routable] verdict additionally requires. *)

val verdict_of_scores :
  degenerate:bool -> normalized_overflow:float -> peak_utilization:float -> verdict
(** The threshold logic of an uncertified forecast, exposed for tests:
    [Routable] or [Uncertain], never [Unroutable] ([degenerate:true]
    forces [Uncertain]). *)

val verdict_to_string : verdict -> string
