(** The job ledger: the bookkeeping both serve drains share.

    {!Scheduler.drain} (one job at a time in one process) and {!Shard.drain}
    (a fleet of worker processes) differ only in how they dispatch runs.
    Everything around the dispatch lives here, once: job ids, admission
    of JSON-lines jobs and spool files, the degradation level read off
    the queue depth, the retry/quarantine policy applied to a faulted
    run, the drain's counts and the [summary.json] they end in. Every
    count also moves its [serve_jobs_*] (or [serve_shard_*]) counter, so
    a fleet drain is as observable as an in-process one.

    {2 Artifacts}

    - [out_dir/quarantine/<source>/parse-NNN.txt]: one rejected job line
      (source, parse error, the line), numbered by the drain's parse
      error count.
    - [out_dir/quarantine/<id>/]: a job given up on — its respoolable
      [job.json], [failure.txt], and for synthetic [workload] jobs a
      [reproducer.txt] in {!Cals_verify.Fuzz} format.
    - [out_dir/summary.json]: the counts below and [wall_s]; a fleet
      ledger adds a ["shard"] object with [shed] and [restarts]. *)

type summary = {
  submitted : int;  (** Jobs admitted. *)
  completed : int;  (** Jobs that wrote their artifacts. *)
  quarantined : int;  (** Jobs given up on (excludes shed jobs). *)
  retries : int;  (** Faulted runs that went back in a queue. *)
  timeouts : int;  (** Runs (not jobs) that hit their deadline. *)
  parse_errors : int;  (** Rejected spool, stdin or socket lines. *)
  shed : int;  (** Jobs dropped by fleet backpressure; 0 in process. *)
  restarts : int;  (** Fleet worker respawns; 0 in process. *)
  wall_s : float;  (** From {!start} to {!finish}. *)
}

type t

val create :
  out_dir:string ->
  fleet:bool ->
  high_watermark:int ->
  overload_watermark:int ->
  triage_watermark:int ->
  enqueue:(t -> Job.t -> unit) ->
  t
(** A ledger writing under [out_dir]. [enqueue] hands an admitted job to
    the drain's queues; it receives the ledger so it may {!shed} or
    {!quarantine} instead. [fleet] adds the ["shard"] object to
    [summary.json]. The watermarks set {!level}. Touches no file. *)

val submit : t -> Proto.spec -> string
(** Admit one job and return its id: an empty [id] becomes a fresh
    ["job-NNNN"], numbered in admission order. *)

val submit_line : t -> source:string -> string -> (string option, string) result
(** Parse one JSON-lines job and {!submit} it. Blank lines and [#]
    comments give [Ok None]. A malformed line is counted, written to
    [out_dir/quarantine/<source>/parse-NNN.txt] and returned as
    [Error]. *)

val load_spool : t -> dir:string -> int
(** Submit every line of every [*.json] file in [dir], files in sorted
    order, each deleted before its lines are read (so a watching drain
    never reads it twice). Returns the number of jobs admitted; a
    missing [dir] admits none. *)

val level : t -> depth:int -> int
(** The degradation level for a queue [depth]: 0 below the high
    watermark, 1 from it, 2 from the overload watermark, 3 from the
    triage watermark. Publishes the depth and level gauges. *)

val complete : t -> Job.t -> wall_s:float -> unit
(** Mark a job [Done] after a run of [wall_s] seconds. *)

val fault : t -> Queue.t -> Job.t -> Job.fault -> [ `Retry | `Quarantine ]
(** Apply the failure policy to a faulted run: count a timeout, then
    {!Queue.record_fault} either requeues the job on [queue] (counted as
    a retry) or gives up on it, and the ledger quarantines it. *)

val quarantine : t -> Job.t -> Job.fault -> unit
(** Give up on a job without another run: mark it, count it and write
    its quarantine directory. *)

val shed : t -> Job.t -> Job.fault -> unit
(** Like {!quarantine}, but counted as shed by backpressure. *)

val restarted : t -> unit
(** Count one fleet worker respawn. *)

val start : t -> unit
(** Begin the drain: create [out_dir] and start the wall clock.
    @raise Invalid_argument on a second call — a ledger drains once. *)

val finish : t -> summary * string
(** End the drain: write [out_dir/summary.json] and return the summary
    with the JSON line written (newline included). *)
