(** The in-process serve drain behind [cals serve] without [--workers],
    and the body of every {!Shard} worker.

    A scheduler owns one {!Queue}, a {!Ledger}, and a {e design cache}:
    per distinct circuit ({!Proto.design_key}) the subject graph,
    floorplan, companion placement and a {!Cals_core.Incremental}
    session, warmed once ({!Cals_core.Incremental.warm}) and kept alive
    across jobs so repeated designs skip decomposition, placement and
    pattern matching entirely. Telemetry rings and metric counters
    likewise persist for the life of the process — one trace covers the
    whole drain.

    {2 Execution model}

    Jobs are drained in rounds on the calling domain: every queued job
    whose backoff gate has passed is taken, and the round's jobs run one
    after another. Each searches its job's K schedule with
    {!Cals_core.Flow.run_adaptive} against its design's session, writes
    the job's artifact directory and hands its outcome to the ledger,
    which applies the retry/quarantine policy ({!Ledger.fault}). Jobs run
    in parallel only in a {!Shard} fleet, one job per worker process at a
    time. A job's deadline becomes a
    {!Cals_util.Cancel} token with a wall-clock expiry, checked
    cooperatively at every flow and router check point. Job ids, spool
    ingestion, quarantine artifacts and [summary.json] are the ledger's
    and identical to a {!Shard} fleet's.

    {2 Graceful degradation}

    Queue depth sets the round's level ({!Ledger.level}), re-read at
    every round, which {!run_job} applies: at level 1
    ([high_watermark]) jobs shed [Full] checks to [Cheap]; at level 2
    ([overload_watermark]) checks turn [Off] and K schedules are capped
    at [degraded_k_points] points; at level 3 ([triage_watermark]) jobs
    run estimator-only ({!Cals_estimate.Estimate.Triage}) — the schedule
    is walked in order, no point routes at all, acceptance is decided on
    the congestion forecast and the job's metrics carry
    [estimated: true]. Degraded jobs complete (their metrics record what
    was shed) instead of the queue collapsing behind expensive
    stragglers. *)

type config = {
  jobs : int;
      (** Must be 1: a scheduler runs one job at a time. The field stays
          only because the benchmark harness still sets it; it goes with
          the harness's next change. *)
  out_dir : string;  (** Artifact root; created on demand. *)
  default_deadline_s : float option;
      (** Deadline for jobs that specify none; [None] = unlimited. *)
  max_attempts : int;  (** Runs per job before quarantine. *)
  backoff_s : float;  (** First retry delay; doubles per failure. *)
  high_watermark : int;  (** Queue depth that sheds [Full] -> [Cheap]. *)
  overload_watermark : int;
      (** Queue depth that turns checks [Off] and caps the K schedule. *)
  triage_watermark : int;
      (** Queue depth past which jobs run estimator-only: the K schedule
          is still capped, but no point pays a negotiated route —
          congestion forecasts decide acceptance and results are marked
          estimated. *)
  degraded_k_points : int;  (** Schedule cap under overload. *)
  watch : bool;
      (** Keep polling the spool when the queue drains (daemon mode)
          instead of exiting (one-shot drain, the default). *)
  tick_s : float;  (** Idle sleep / spool poll interval. *)
  cache_dir : string option;
      (** Persistent match-cache store directory ({!Store}). When set,
          design builds preload their match sets from the store (so a
          restarted scheduler — or a fleet worker — skips the match
          phase of any design the store has seen) and write back any
          design they had to warm cold. [None] (the default) keeps the
          pre-fleet behavior: the cache dies with the process. *)
}

val default_config : config
(** [jobs = 1], [out_dir = "cals-serve-out"], no default deadline,
    3 attempts, 50 ms backoff, watermarks 8 / 16 / 32, 6 degraded K
    points, one-shot drain, 100 ms tick, no cache dir. *)

type summary = Ledger.summary = {
  submitted : int;
  completed : int;
  quarantined : int;
  retries : int;
  timeouts : int;
  parse_errors : int;
  shed : int;
  restarts : int;
  wall_s : float;
}

type t

val create : config -> t
(** Raises [Invalid_argument] unless [config.jobs = 1]. *)

val ledger : t -> Ledger.t
(** The drain's ledger: submit lines or spool directories through it. *)

val drain : t -> ?spool:string -> unit -> summary
(** Load [spool], then run rounds until the queue is empty (or forever
    under [config.watch], re-polling [spool] between rounds). Every
    round's results are applied before the next is dispatched; on
    return every submitted job is [Done] or
    [Quarantined], and the ledger has written [out_dir/summary.json].
    Safe to call once per scheduler. *)

(** {2 Single-run API}

    The pieces of one job run, exposed so a {!Shard} worker process can
    execute jobs with exactly the in-process scheduler's semantics (same
    design cache, degradation behavior and artifact layout) while the
    queue- and retry-level bookkeeping lives in the front-end's
    {!Ledger}. *)

type run_metrics = {
  wall_s : float;
  iterations : int;  (** K points evaluated (routed or forecast). *)
  accepted_k : float option;
  cells : int;
  cell_area : float;
  violations : int option;
  cache_hits : int;
      (** Match-cache hits during this run: the design session's count
          over the run, after the design was built and warmed. *)
  cache_misses : int;
  checks_run : Cals_verify.Check.level;
  degrade_level : int;
  k_capped : bool;
  estimated : bool;
  critical_path_ns : float option;
      (** Post-route STA at the accepted K; see [metrics.json]. *)
  real_routes : int;
      (** Iterations that paid a negotiated route — what the adaptive
          ladder minimizes. *)
  forecast_evals : int option;
      (** Forecast-only probe count of the adaptive search; [None] on the
          triage rung, which walks the schedule without it. *)
  store_preloaded : int option;
      (** Match sets the design preloaded from the persistent store
          ([None] without [cache_dir]). *)
}

type run_result = Success of run_metrics | Fault of Job.fault

val run_job : t -> level:int -> Job.t -> run_result
(** Execute one run of one job at the given degradation level:
    increment its attempt counter, resolve (or build) its design, run
    its K ladder and write its artifact directory on success. Faults
    are returned, not applied — the caller's {!Ledger.fault} owns the
    retry/quarantine policy. *)
