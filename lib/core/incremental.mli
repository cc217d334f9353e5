(** Incremental K-loop mapping sessions (warm-start re-mapping).

    The Figure-3 methodology loop re-runs tree covering at every K
    increment while the subject DAG, its PDP trees and the companion
    placement are produced exactly once. Structural pattern matches are
    K-independent — only the AREA/WIRE cost combination changes with K —
    so a session computes the matches once per partition tree, caches them
    keyed by a subject-tree fingerprint, and re-runs only the
    cost-combination DP per K point.

    {2 Cache keying and invalidation}

    A session fixes the subject graph, the library, the companion
    placement and the mapper options (everything but K and the timing
    weight T, which are per-{!map}-call). The partition is
    computed once at {!create}; each of its trees gets a 64-bit FNV-1a
    fingerprint over the tree's node ids, gate kinds, fanins and father
    edges. The match cache maps fingerprint → per-node candidate sets, so

    - a second {!map} call at a different K hits on every tree;
    - a tree whose structure or father edges changed (e.g. a different
      partition in some future re-partitioning session) fingerprints
      differently and is re-enumerated, invalidating exactly the stale
      entry and nothing else.

    Results are bit-identical to a cold {!Mapper.map}: cached candidates
    are stored in exact enumeration order, so the DP sees the same
    sequence of matches and breaks ties identically (see
    {!Cover.run}).

    {2 Domain safety}

    Cache insertion is mutex-protected, but concurrent lookups during
    insertion are not safe on a shared [Hashtbl]. A session used from
    several domains must first be {!warm}ed sequentially (one match
    phase) and {!seal}ed, then shared read-only — what the serve
    scheduler does with each cached design's session before its worker
    domains map jobs against it. A sealed session never mutates the cache (a miss is
    recomputed on the fly and dropped), so sealed lookups are race-free.
    Hit/miss statistics are atomics and always safe. *)

type stats = {
  trees : int;  (** Partition trees in the session's subject. *)
  hits : int;  (** Tree match sets served from the cache. *)
  misses : int;  (** Tree match sets enumerated from scratch. *)
  maps : int;  (** {!map} calls executed so far. *)
}

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

val map : ?verify:bool -> ?t:float -> session -> k:float -> Mapper.result
(** One K point: assemble the cached match sets (enumerating any missing
    tree) and run the cost-combination DP + extraction via {!Mapper.map}.
    Bit-identical to the equivalent cold call
    [Mapper.map ?verify subject ~library ~positions { options with k; t }].
    [t] (default [0.]) is the timing weight of
    {!Mapper.options.t}; like K it only affects the cost-combination DP,
    never the cached structural matches, so one session serves timing
    and non-timing calls from the same cache. *)

val warm : session -> unit
(** Sequential match phase: enumerate and cache every tree that is not
    cached yet (counted as misses). After [warm], every {!map} lookup
    hits. *)

val seal : session -> unit
(** Freeze the cache so the session can be shared read-only across
    domains. Subsequent misses (impossible after {!warm} within one
    session) are recomputed without being inserted. *)

val stats : session -> stats
(** Snapshot of the session-local counters. The global telemetry
    counterparts are the [mapper_cache_hit] / [mapper_cache_miss]
    counters in {!Cals_telemetry.Metrics}. *)

val library : session -> Cals_cell.Library.t
(** The library the session matches against. *)

val route_session : session -> Cals_route.Router.Session.t
(** The session's router companion: a {!Cals_route.Router.Session}
    created alongside the match cache, so the K loop that reuses match
    sets also replays unchanged route requests. {!Flow.evaluate_k} does
    not take it from the session: callers pass it explicitly as
    [~route_session] next to [~session] (as {!Flow.run_adaptive} does).
    It shares the session's lifetime and invalidation story (the flow
    never re-uses a session across subjects, so the route cache can only
    ever see requests from one design). *)

val fingerprints : session -> (int * int64) list
(** [(root, fingerprint)] per tree, in root order — exposed for tests and
    diagnostics. *)

val export : session -> (int64 * (int * Cover.node_matches) list) list
(** The cached match sets, one [(fingerprint, per-node candidates)] pair
    per cached tree in tree order. Candidate lists keep their exact
    enumeration order, so a session rebuilt from an export maps
    bit-identically (see {!Cover.run}). Intended for the persistent
    match-cache store ({!Cals_serve.Store}); call after {!warm} to export
    the complete cache. *)

val preload : session -> (int64 * (int * Cover.node_matches) list) list -> int
(** Install previously {!export}ed match sets into a fresh session's
    cache, before {!warm}/{!seal}. Only entries whose fingerprint matches
    one of the session's own trees are installed — anything else (a
    different subject, partition or library vintage) is silently ignored,
    so a stale store can only produce cold misses, never wrong matches.
    Returns the number of entries installed. Installed trees are skipped
    by {!warm} (no miss is counted), so subsequent {!map} lookups count as
    cache hits. Raises [Invalid_argument] if the session is already
    sealed. *)
