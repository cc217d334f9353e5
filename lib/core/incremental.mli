(** Incremental K-loop mapping sessions (warm-start re-mapping).

    The Figure-3 methodology loop re-runs tree covering at every K
    increment while the subject DAG, its PDP trees and the companion
    placement are produced exactly once. Structural pattern matches are
    K-independent — only the AREA/WIRE cost combination changes with K —
    so a session enumerates the matches once per partition tree into one
    flat candidate table ({!Matches.table}) and re-runs only the
    cost-combination DP per K point.

    {2 Cache keying and invalidation}

    A session fixes the subject graph, the library, the companion
    placement and the mapper options (everything but K and the timing
    weight T, which are per-{!map}-call). The partition is
    computed once at {!create}; each of its trees gets a 64-bit FNV-1a
    fingerprint over the tree's node ids, gate kinds, fanins and father
    edges. The fingerprint keys the store ({!missing}): a tree
    whose structure or father edges changed (e.g. a different partition)
    fingerprints differently and is enumerated afresh. After {!warm}, a
    {!map} call at any K hits on every tree.

    {!map} is the one mapping path; the cold mapper survives only as a
    test oracle. Candidates keep their exact enumeration order, so a
    cached tree and a freshly enumerated one give the DP the same
    candidate sequence and the same tie-breaks (see {!Cover.run}).

    {2 Cache discipline and domain safety}

    The table fills only through {!warm} and the store ({!missing}). A
    {!map} on a session with uncached trees enumerates them into a
    per-call copy of the table and drops it. As {!map} never writes, any
    number of domains may share a session with no lock, once its filling
    is done ({!warm} and a store load must not overlap a {!map}). An
    unwarmed session is just as safe, only slower. The hit/miss
    statistics are atomics. *)

type stats = {
  trees : int;  (** Partition trees in the session's subject. *)
  hits : int;  (** Trees a {!map} found in the session's table. *)
  misses : int;  (** Tree enumerations, by {!warm} or an unwarmed {!map}. *)
  maps : int;  (** {!map} calls executed so far. *)
}

type lookups = { mutable tree_hits : int; mutable tree_misses : int }
(** One caller's own count of its {!map} calls' tree lookups. A session's
    {!stats} sum every caller's; a job sharing the session with another
    domain's jobs counts its own here. *)

type session

val create :
  ?options:Mapper.options ->
  subject:Cals_netlist.Subject.t ->
  library:Cals_cell.Library.t ->
  positions:Cals_util.Geom.point array ->
  unit ->
  session
(** Partition once ([options.strategy], default
    {!Mapper.congestion_aware}[ ~k:0.0], i.e. PDP) and fingerprint every
    tree. [options.k] is irrelevant here — each {!map} call substitutes
    its own K. *)

val map :
  ?verify:bool ->
  ?t:float ->
  ?lookups:lookups ->
  session ->
  k:float ->
  Mapper.result
(** One K point: run the cost-combination DP ({!Cover.run}) over the
    session's table and extract the netlist, under the session's
    options with [k] and [t] substituted. [t] (default [0.]) is the
    timing weight of {!Mapper.options.t}; like K it never touches the
    structural matches, so timing and non-timing calls share one table.
    With [verify] (default [false]) the extraction is checked to cover
    every live gate; a violation raises
    {!Cals_verify.Check.Violation} with stage ["cover"]. The call's tree
    hits and misses are also added to [lookups], when given. *)

val warm : session -> unit
(** Sequential match phase: enumerate every tree that is not in the
    table yet into it (counted as misses). After [warm], every {!map} lookup
    hits. Must not overlap a {!map} on the same session. *)

val stats : session -> stats
(** Snapshot of the session-local counters. The global telemetry
    counterparts are the [mapper_cache_hit] / [mapper_cache_miss]
    counters in {!Cals_telemetry.Metrics}. *)

val library : session -> Cals_cell.Library.t
(** The library the session matches against. *)

val route_session : session -> Cals_route.Router.Session.t
(** The session's router companion: a {!Cals_route.Router.Session}
    created alongside the match table, so the K loop that reuses match
    sets also replays unchanged route requests. {!Flow.evaluate_k} does
    not take it from the session: callers pass it explicitly as
    [~route_session] next to [~session] (as {!Flow.run_adaptive} does).
    It shares the session's lifetime and invalidation story (the flow
    never re-uses a session across subjects, so the route cache can only
    ever see requests from one design). *)

(** {2 The store's view}

    [Cals_serve.Store] saves the table of a session's {!cached} trees
    and loads a saved one straight into a fresh session's table (through
    {!Matches.add_candidate}, {!Matches.add_stored} and
    {!Matches.truncate}, only for {!missing} trees), tree by tree under
    the fingerprints. None of this may overlap a {!map}. *)

val table : session -> Matches.table
val partition : session -> Partition.t

val cached : session -> (int64 * int array) list
(** [(fingerprint, live gates)] per tree in the table, in tree order
    (each tree's live gates in increasing order). *)

val missing : session -> int64 -> int array option
(** The live gates of the tree with this fingerprint, if it is not in the
    table yet. Once the store has added all of them the tree is cached:
    {!warm} skips it and {!map} counts it a hit. *)
