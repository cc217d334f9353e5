(** The paper's modified ASIC design flow (Figure 3).

    The technology-independent netlist and its companion placement are
    produced once; the loop then maps with increasing K, legalizes the
    mapped netlist from the mapper's seeds, global-routes, and stops at the
    first K whose congestion map is acceptable. *)

type iteration = {
  k : float;
  cells : int;
  cell_area : float;
  utilization : float;  (** Of the floorplan core. *)
  hpwl_um : float;
  report : Cals_route.Congestion.report;
  estimated : bool;
      (** The report came from {!Cals_estimate.Estimate} instead of a
          negotiated route (the route was pruned or triaged away). *)
  verdict : Cals_estimate.Estimate.verdict option;
      (** The forecast's verdict at this point, when the estimator ran
          ([None] under [estimate:Off] and for netlists that do not
          legalize). [Some Unroutable] means the point's cut certificate
          proved every route of it violates. Routed points keep their
          pre-route verdict, so the adaptive search and its tests can
          audit which skips were justified. *)
}

type outcome = {
  iterations : iteration list;  (** In schedule order, as executed. *)
  accepted : iteration option;  (** First acceptable iteration. *)
  mapped : Cals_netlist.Mapped.t option;  (** Netlist of the accepted K. *)
  placement : Cals_place.Placement.mapped_placement option;
  routing : Cals_route.Router.result option;
}

type adaptive_stats = {
  real_routes : int;
      (** Negotiated routes actually performed by the adaptive search —
          the number the linear 14-point sweep pays 14 of. Legalize
          overflows and estimator-skipped points do not count. *)
  forecast_evals : int;
      (** Forecast-only evaluations (map + legalize + millisecond
          estimate, no route) spent on bisection probes and the
          soundness sweep. *)
  frontier_k : float option;
      (** First schedule point not proven rejected — where the
          confirming routes started. [None] when every point was
          established-rejected. *)
}

val default_k_schedule : float list
(** The paper's Table 2 ladder: 0, 1e-4 ... 1.0. *)

val run_adaptive :
  ?k_schedule:float list ->
  ?router_config:Cals_route.Router.config ->
  ?checks:Cals_verify.Check.level ->
  ?route_jobs:int ->
  ?t:float ->
  ?cancel:Cals_util.Cancel.t ->
  ?session:Incremental.session ->
  ?positions:Cals_util.Geom.point array ->
  subject:Cals_netlist.Subject.t ->
  library:Cals_cell.Library.t ->
  floorplan:Cals_place.Floorplan.t ->
  rng:Cals_util.Rng.t ->
  unit ->
  outcome * adaptive_stats
(** The K search: find the first acceptable point of [k_schedule] with a
    handful of real routes instead of one per schedule point, seeded by
    {!Cals_estimate.Estimate} verdicts.

    Three phases. (1) {e Verdict bisection}: binary-search the ladder for
    the frontier — the lowest K not proven rejected — using
    forecast-only probes (map + legalize + estimate, never a route).
    (2) {e Soundness sweep}: forecast every point the bisection skipped
    below the frontier; any point not proven rejected lowers the
    frontier, so the prefix-of-rejections assumption behind the
    bisection is only ever an optimization. (3) {e Confirming routes}:
    from the frontier up, route every point not proven rejected,
    ascending, until the first acceptable {e real} route.

    The invariant, by construction: a real route is skipped only where
    the point is established-rejected — its netlist does not legalize,
    or its forecast is [Unroutable], which means its
    {!Cals_route.Router.Cut} certificate proves every route of it
    violates (and its recorded report carries violations). Every other
    point below the accepted one is routed, in schedule order, exactly
    as a linear walk of the schedule under [estimate:Prune] would route
    it, and a skipped point would have failed the unpruned walk's route
    too. Hence the accepted K, its mapped netlist and its routed result
    are those of the linear walk, pruned or not, and the no-acceptable-K
    outcome (over-capacity floorplans) is preserved — at the cost of
    [real_routes] negotiated routes against the 14-point default ladder
    (test_flow "adaptive route budget" bounds them on a settling
    circuit). The test suites keep that linear walk as an oracle.

    [iterations] in the returned outcome holds every point the search
    evaluated, in schedule order; bisection probes above the accepted K
    may appear (forecast-only, [estimated = true]), and points the search
    never needed to look at are absent.

    Mapping runs through one {!Incremental} session (the partition and
    per-tree pattern matches are computed once, only the cost DP re-runs
    per K) and routing through its {!Incremental.route_session}, which
    replays repeated route requests. Both are bit-identical to cold
    evaluation. Without [session] the search creates one and warms it
    first, so each tree is enumerated once per search. [session] and
    [positions] let a caller that already owns a warmed session and its
    companion placement (the serve scheduler's per-design cache) thread
    them through instead of placing and warming from scratch; a passed
    session is not warmed here. When [positions] is given, [rng] is
    unused.

    [t] (default [0.]) is the timing weight of the multi-objective match
    cost [AREA + K*WIRE + T*DELAY] — see {!Mapper.options.t}. It changes
    only the cost-combination DP, and [t = 0.] reproduces the pure Eq. 5
    flow bit for bit.

    [checks] (default [Off]) selects how much of the verification layer
    runs alongside the search — see {!Cals_verify.Check.level}. Checks
    never change the outcome; a violated invariant raises
    {!Cals_verify.Check.Violation}. [Cheap] miters only the accepted
    netlist, [Full] every evaluated point. The equivalence stimulus is
    derived from K alone (see {!equiv_seed}), so checked runs stay
    deterministic.

    [route_jobs] (default 1) sizes a worker pool for the router's rip-up
    waves: segments with disjoint search boxes maze-route concurrently
    within one negotiation iteration. The outcome is identical for every
    [route_jobs] value (commits are deferred and ordered).

    [cancel] (default {!Cals_util.Cancel.never}) makes the search
    cooperatively cancellable: it is forwarded into every {!evaluate_k}
    (which also hands it to the router's negotiation loop). A fired token
    unwinds with {!Cals_util.Cancel.Cancelled} — this is how the batch
    service ([cals serve]) enforces per-job deadlines. *)

val evaluate_k :
  ?router_config:Cals_route.Router.config ->
  ?checks:Cals_verify.Check.level ->
  ?estimate:Cals_estimate.Estimate.policy ->
  ?session:Incremental.session ->
  ?route_session:Cals_route.Router.Session.t ->
  ?route_pool:Cals_util.Pool.t ->
  ?t:float ->
  ?cancel:Cals_util.Cancel.t ->
  subject:Cals_netlist.Subject.t ->
  library:Cals_cell.Library.t ->
  floorplan:Cals_place.Floorplan.t ->
  positions:Cals_util.Geom.point array ->
  k:float ->
  unit ->
  iteration
  * (Cals_netlist.Mapped.t
    * Cals_place.Placement.mapped_placement option
    * Cals_route.Router.result option)
(** One K point against a precomputed companion placement — the primitive
    the K search and the bench tables are built from. The point maps
    through [session], or without one through a fresh session with the
    default options ({!Mapper.congestion_aware}, PDP). A passed session
    must have been created from the same [subject], [positions] and
    library; its options, bar K and [t], are the ones the point maps
    with.

    [estimate] (default [Prune]) runs the millisecond congestion forecast
    ({!Cals_estimate.Estimate}) on the placed point before routing. Under
    [Prune] an [Unroutable] verdict — a cut certificate proving the
    route would violate — skips the negotiated route and records the
    estimator's report with [estimated = true]; that report carries the
    certificate's lower bound on the violations (>= 1), so a pruned
    point is never accepted. [Triage] routes nothing and records the forecast; [Off]
    always routes. [t] (default [0.]) is the timing weight of
    {!Mapper.options.t}, forwarded to {!Incremental.map}; the equivalence stimulus stays derived from K alone
    (see {!equiv_seed}), which remains sound because the stimulus never
    depends on the netlist under check.

    The placed point becomes one {!Cals_route.Router.Request.t}, built
    once and read by both the forecast and the route, so the estimator
    scores exactly the pins and density the router would take.
    [route_session] and [route_pool] are handed to
    {!val:Cals_route.Router.route} unchanged: the session replays
    repeated route requests, the pool parallelizes rip-up waves (never
    pass a pool this call itself runs on). Neither changes the result.
    They are deliberately not derived from [session]; callers that want
    the bundled route session pass
    [~route_session:(Incremental.route_session s)] explicitly.

    [cancel] is checked on entry, between the map / place / route stages
    and inside the router; a fired token raises
    {!Cals_util.Cancel.Cancelled}. Cancellation is cooperative — an
    individual stage (one covering DP, one maze search) always runs to
    completion before the token is seen. *)

(** {1 Synthesis orchestration} *)

type candidate_eval = {
  cand_label : string;
      (** ["baseline"] or the AIG pass-sequence label
          (see {!Cals_logic.Orchestrate.candidate}). *)
  gates : int;  (** Subject-graph gate count. *)
  aig_ands : int option;  (** Live AIG nodes; [None] for the baseline. *)
  aig_depth : int option;  (** AIG depth; [None] for the baseline. *)
  guarded : bool;
      (** The subject-size guard skipped this candidate: its subject had
          more gates than the baseline's, so it could never be selected
          and no K-loop evaluation was spent on it. *)
  result : (outcome * adaptive_stats) option;
      (** The candidate's adaptive K search; [None] iff [guarded]. *)
}

type orchestrated = {
  evaluations : candidate_eval list;
      (** Schedule order: the baseline first, then the candidates of
          {!Cals_logic.Orchestrate.prepare}. *)
  baseline : candidate_eval;  (** [= List.hd evaluations], never guarded. *)
  best : candidate_eval;  (** The selected candidate. *)
  best_index : int;  (** Index of [best] in [evaluations]. *)
  best_subject : Cals_netlist.Subject.t;
      (** The selected front-end result — what a caller that caches
          per-design state (the serve scheduler) should build on. *)
  best_network : Cals_logic.Network.t;
      (** The selected candidate's optimized Boolean network. *)
}

val orchestrate :
  ?budget:int ->
  ?optimize:bool ->
  ?k_schedule:float list ->
  ?checks:Cals_verify.Check.level ->
  ?jobs:int ->
  ?route_jobs:int ->
  ?t:float ->
  ?cancel:Cals_util.Cancel.t ->
  network:Cals_logic.Network.t ->
  library:Cals_cell.Library.t ->
  floorplan_of:(Cals_netlist.Subject.t -> Cals_place.Floorplan.t) ->
  seed:int ->
  unit ->
  orchestrated
(** Explore tech-independent pass orderings and keep the best mapped
    result. {!Cals_logic.Orchestrate.prepare} generates the candidate
    front-end results (legacy pipeline baseline + [budget] AIG pass
    sequences, default {!Cals_logic.Orchestrate.default_budget});
    each candidate whose subject does not exceed the baseline's gate
    count is miter-checked against the baseline network
    ({!Cals_verify.Equiv}, always on — a mismatch raises
    {!Cals_verify.Check.Violation}) and then scored with
    {!run_adaptive} on its own floorplan ([floorplan_of] its subject,
    so every candidate gets the same utilization policy the plain flow
    would) with the stimulus RNG derived from [seed] exactly as
    [cals flow] derives it — the baseline evaluation is bit-identical
    to a plain [cals flow] run.

    Selection minimizes [(accepted K, subject gates, cell area,
    candidate index)] lexicographically — no accepted K sorts last, and
    the index tie-break makes the baseline win exact ties — so the
    selected accepted K is never worse than the fixed pipeline's and
    repeated runs are bit-identical. The selected accepted netlist is
    re-mitered against its subject before returning.

    [jobs > 1] evaluates candidates concurrently on a
    {!Cals_util.Pool} ([route_jobs] is then forced to 1 — pools must
    not nest); the result does not depend on [jobs]. Telemetry:
    [orchestrate_candidates_evaluated / _guarded / _improvements], plus
    the generation-side counters of {!Cals_logic.Orchestrate}.

    [checks] selects the {e flow}'s own per-K verification level, as in
    {!run_adaptive}; the orchestrator's candidate and accepted-netlist miters
    run regardless. *)

val equiv_seed : k:float -> int
(** Seed of the per-K equivalence stimulus, derived from K alone and from
    nothing else — not evaluation order, not cache state — so cold,
    incremental and out-of-order (adaptive) evaluations all draw identical
    stimulus streams at the same K. Hoisted to the top of {!evaluate_k} and shared
    with the accepted-netlist spot-check. *)
