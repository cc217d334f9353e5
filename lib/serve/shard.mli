(** The serve fleet: a front-end that shards jobs over supervised worker
    processes, with backpressure and a socket ingress.

    {2 Topology}

    The front-end dispatches, supervises and never maps anything itself.
    Its bookkeeping — job ids, spool and line admission, retry and
    quarantine, the degradation level, the counts and [summary.json] — is
    a {!Ledger}, the same one {!Scheduler.drain} uses, so both drains of
    one spool write the same ids, quarantine layout and summary keys (the
    fleet's summary adds a ["shard"] object). Each worker is a
    [cals serve --worker] child process speaking newline-delimited JSON
    over its stdin/stdout pipe pair (stderr passes through for logs):
    one request [{"op":"run","attempts":A,"level":L,"job":<spec>}] at a
    time, answered by [{"id":I,"ok":true,"wall_s":S}] or
    [{"id":I,"ok":false,"fault":{...}}]. Workers run jobs through
    {!Scheduler.run_job}, so artifacts, degradation semantics and the
    per-worker design cache are exactly the in-process scheduler's, and a
    shared [--cache-dir] ({!Store}) lets every worker warm designs the
    fleet has seen before.

    {2 Sharding}

    Jobs hash by {!Proto.design_key} onto workers with
    highest-random-weight (rendezvous) hashing over the non-abandoned
    workers: a design's jobs always land on the same worker (so its
    warmed session is reused and per-job cache metrics match a
    single-process drain), one hot design can only ever occupy one
    worker, and when a worker is abandoned its keys re-distribute over
    the survivors without moving anyone else's.

    {2 Supervision}

    A worker that exits (crash, kill, chaos) is detected by EOF on its
    pipe; its in-flight job goes through the ledger's retry/quarantine
    policy ({!Ledger.fault}) as a [Crashed] fault, and the worker is
    respawned up to [restart_limit] times, after which it is abandoned
    and its queue re-routes to the survivors. If no worker is left
    alive, remaining jobs quarantine rather than hang.

    {2 Backpressure}

    Per-worker queues are bounded by [queue_watermark]: past it, the
    {e oldest} queued job is shed (quarantined with a backpressure fault,
    counted in [summary.shed]) to admit the newest. Fleet-wide queue
    depth sets the same 0–3 degradation level as in process
    ({!Ledger.level}), passed to workers per request. The ledger's
    [serve_jobs_*] counters and the front-end's [serve_shard_*] counters
    and gauges are on the existing exporters.

    {2 Chaos hook (tests)}

    With [CALS_SHARD_CHAOS=1] in the environment, a worker that receives
    a first-attempt job whose id starts with ["chaos-kill"] exits
    abruptly mid-job without replying — deterministic crash injection for
    the fault battery; retries (attempts > 1) run normally. *)

type config = {
  workers : int;  (** Worker processes (>= 1). *)
  worker_argv : string array;
      (** Full argv to spawn one worker, e.g.
          [[| "cals"; "serve"; "--worker"; "--out"; dir |]]. *)
  out_dir : string;  (** Artifact root (shared with the workers). *)
  listen : Cals_util.Netaddr.t option;
      (** Socket ingress. Clients submit JSON-lines job specs (answered
          [{"ok":true,"id":...}] / [{"ok":false,"error":...}]);
          [{"op":"drain"}] finishes all queued work, answers with the
          summary line and ends the drain. [None] = spool/stdin only:
          the drain ends when the queues empty. *)
  max_attempts : int;  (** Runs per job before quarantine. *)
  backoff_s : float;  (** First retry delay; doubles per failure. *)
  queue_watermark : int;
      (** Per-worker queue bound; 0 disables shedding. *)
  restart_limit : int;
      (** Respawns per worker before it is abandoned. *)
  high_watermark : int;  (** Fleet queue depth for degradation 1. *)
  overload_watermark : int;  (** ... level 2. *)
  triage_watermark : int;  (** ... level 3. *)
  tick_s : float;  (** Select timeout / idle poll interval. *)
}

val default_config : config
(** 2 workers, empty [worker_argv] (the caller must fill it),
    ["cals-serve-out"], no listener, 3 attempts, 50 ms backoff,
    watermark 64, 2 restarts, degradation watermarks 8 / 16 / 32,
    100 ms tick. *)

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
(** Validates [workers >= 1] and a non-empty [worker_argv]. Workers are
    spawned by {!drain}, not here. *)

val ledger : t -> Ledger.t
(** The drain's ledger: submit lines or spool directories through it. *)

val submit : t -> Proto.spec -> string
(** {!Ledger.submit}: route one job to its worker's queue (shedding past
    the watermark) and return its id. *)

val drain : t -> ?spool:string -> unit -> summary
(** Spawn the workers, ingest [spool] if given, then run the select
    loop — dispatching, supervising, accepting socket clients — until
    every queue is empty and no job is in flight (socket mode waits for
    a client's [{"op":"drain"}] first). Workers are shut down (stdin
    EOF + waitpid) on the way out and the ledger writes
    [out_dir/summary.json]. Safe to call once per [t]. *)

val worker_main : Scheduler.config -> unit
(** The worker side: serve [{"op":"run",...}] requests from stdin until
    EOF, writing one response line per request on stdout. Runs jobs via
    {!Scheduler.run_job} on a private scheduler (the design cache and
    [cache_dir] store behavior ride in [config]); never touches a queue
    or a ledger. A worker runs one job at a time; parallelism comes from
    the process fleet. *)
