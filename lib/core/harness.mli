(** The fuzzer's subject under test: the whole flow with checks on.

    {!Cals_verify.Fuzz} is deliberately ignorant of the flow (the
    dependency points the other way); this module supplies the canonical
    [check] callback. For one parameter tuple it generates the workload,
    runs optimization, decomposition and the Figure-3 K search
    ({!Flow.run_adaptive}) with the verification layer enabled, and
    checks equivalence across the logic-synthesis stage boundaries the
    flow itself cannot see (original vs optimized network, network vs
    subject graph). It then re-routes every point the search skipped on
    a cut certificate ([verdict = Some Unroutable]) with the estimator
    off, so the certificate's proof is checked at runtime too.

    The flow's configuration follows the workload seed: odd seeds route
    on two metal layers at 85 % utilization, congested enough that
    certificates fire; even seeds route on the default three at 45 %.
    Only [layers] differs from {!Cals_route.Router.default_config}. The
    shrinker never changes the seed, so a reproducer replays its
    configuration. *)

val check_params :
  ?level:Cals_verify.Check.level ->
  Cals_verify.Fuzz.params ->
  (unit, string * string) result
(** [check_params p] runs the full pipeline on the workload described by
    [p] and reports the first violation as [Error (stage, detail)]. A
    {!Cals_verify.Check.Violation} maps to its own stage; any other
    exception (including [Invalid_argument] from structural mismatches)
    maps to stage ["exception"]. A certified point that routes with
    fewer violations than its report claims (clean included) is
    [Error ("certificate", detail)]. Default: [level = Full]. A flow that
    finds no acceptable K is not a failure — the fuzzer tests invariants,
    not routability. *)
