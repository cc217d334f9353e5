(** The linear Figure-3 walk: evaluate every K of the schedule in order
    and stop at the first acceptable congestion map.

    This is the search {!Cals_core.Flow.run_adaptive} must agree with:
    same accepted K, same mapped netlist, same routed paths, and no more
    real routes than this walk pays under [estimate:Prune]. It ships in
    no library; tests and the bench link it as their oracle. *)

val run :
  ?k_schedule:float list ->
  ?router_config:Cals_route.Router.config ->
  ?checks:Cals_verify.Check.level ->
  ?estimate:Cals_estimate.Estimate.policy ->
  ?t:float ->
  ?session:bool ->
  subject:Cals_netlist.Subject.t ->
  library:Cals_cell.Library.t ->
  floorplan:Cals_place.Floorplan.t ->
  rng:Cals_util.Rng.t ->
  unit ->
  Cals_core.Flow.outcome
(** Places the subject once from [rng], then calls
    {!Cals_core.Flow.evaluate_k} at each K of [k_schedule] (default
    {!Cals_core.Flow.default_k_schedule}) in order. The iteration list is
    always a schedule prefix. Netlists that do not legalize are recorded
    with an all-violations report and the walk moves on.

    [estimate] (default [Prune]) is handed to every point: [Off] routes
    every point, [Prune] skips the routes the forecast confidently calls
    unroutable, [Triage] routes nothing.

    [session] (default [true]) walks the schedule through one warmed
    {!Cals_core.Incremental} session and its route session, as the
    shipped search does; [false] maps each K through a fresh session and
    routes it cold. The outcome is the same either way.

    [checks] runs the verification layer as the shipped search does: a
    [Cheap] run miters only the accepted netlist, a [Full] run every K
    point. *)
