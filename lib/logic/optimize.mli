(** Technology-independent optimization (the "SIS" role in the paper).

    The passes minimize the factored-literal count of the network by
    algebraic restructuring: shared-divisor extraction (kernels and common
    cubes) plus node elimination. The paper's premise is that this
    unrestrained sharing, while optimal for cell area, creates high-fanout
    structure that congests routing — so this module is both a substrate
    (front end of every flow) and the "SIS" comparison subject of Tables
    1-5. *)

type stats = {
  live_nodes : int;  (** {!Network.num_live_nodes}. *)
  literals : int;  (** {!Network.num_literals} — the area proxy. *)
}

val stats : Network.t -> stats
(** Snapshot of the two numbers every pass tries to shrink. *)

val eliminate : ?value_threshold:int -> Network.t -> int
(** Collapse nodes whose elimination "value" (extra literals created by
    collapsing) is at most the threshold (default 0) into their consumers.
    Returns the number of nodes eliminated. Runs under the
    [logic.eliminate] span. *)

val extract_common_cubes : Network.t -> int
(** Repeatedly (at most 64 rounds) extract the best-value common cube as
    a new AND node.
    Considers both identical cubes shared across nodes (PLA product terms)
    and pairwise cube intersections within a node. Returns the number of
    divisor nodes created. Runs under the [logic.extract_cubes] span; the
    trial divisions it runs and the savings it reuses from an earlier
    round are added to the [optimize_savings_computed] and
    [optimize_savings_reused] counters. *)

val extract_kernels : Network.t -> int
(** Repeatedly (at most 64 rounds) extract the best-value multi-cube
    kernel as a new node. Nodes with more than 40 cubes are skipped as
    kernel sources (but still rewritten as uses). Returns the number of
    divisor nodes created. Runs under the [logic.extract_kernels] span,
    with the same two counters as {!extract_common_cubes}. *)

val script_area : ?rounds:int -> Network.t -> unit
(** The aggressive area script, in place, under a telemetry span: a
    {!Network.sweep}, then [rounds] (default 2) repetitions of
    {!extract_common_cubes}, {!extract_kernels} and {!eliminate} at
    threshold 0 (their counts recorded on the
    [optimize_cubes_extracted], [optimize_kernels_extracted] and
    [optimize_nodes_eliminated] counters), then a final sweep. Mirrors a
    SIS [script.algebraic] run in spirit. *)

val script_light : Network.t -> unit
(** Sweep only — the front end used for the "DAGON" baseline netlists. *)
