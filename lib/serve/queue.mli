(** A serve drain's job queue: FIFO order and retry backoff.

    A FIFO of {!Job.t} with the backoff policy folded
    in: a failed or timed-out run goes back in the queue behind an
    exponential backoff gate until its attempt budget is spent, after
    which {!record_fault} hands it back for quarantine. The queue never
    drops a job silently — every submission ends as [Done] or
    [Quarantined]. Counting, logging and quarantine artifacts are the
    {!Ledger}'s, which calls {!record_fault} from {!Ledger.fault}.

    Every operation runs on the draining domain: the in-process
    scheduler drains one queue in rounds, and a {!Shard} fleet keeps one
    queue per worker in its front-end's select loop. The queue has no
    lock. *)

type t

val create : ?max_attempts:int -> ?backoff_s:float -> unit -> t
(** [max_attempts] (default 3) runs per job before quarantine;
    [backoff_s] (default 0.05) is the first retry delay, doubled per
    subsequent failure — attempt [n]'s gate is
    [backoff_s * 2^(n-1)] seconds after the fault. *)

val push : t -> Job.t -> unit
(** Admit a job (status must be [Pending]). FIFO within readiness. *)

val take_ready : t -> now:float -> max:int -> Job.t list
(** Pop up to [max] jobs whose backoff gate has passed, oldest first,
    marking each [Running]. Jobs still behind their gate stay queued. *)

val record_fault : t -> now:float -> Job.t -> Job.fault -> [ `Retry | `Quarantine ]
(** The policy decision for a failed run: within budget the job returns
    to the queue ([`Retry], status [Pending], gate set); out of budget,
    or on a {!Job.Input_error} (which no retry can mend), it is marked
    [Quarantined] and {e not} requeued — the caller ({!Ledger.fault})
    writes the quarantine artifacts. *)

val depth : t -> int
(** Jobs currently queued (ready or backing off), excluding running
    ones — the scheduler's overload signal. *)

val shed_oldest : t -> Job.t option
(** Pop the oldest queued job unconditionally (ignoring backoff gates),
    or [None] on an empty queue. The shard front-end's backpressure
    valve: when a worker's queue crosses its watermark, the oldest
    waiter is shed to make room for the newest — and the same primitive
    empties a dead worker's queue for re-routing. The caller owns the
    popped job's fate (shed artifact, re-route, ...). *)

val next_gate : t -> now:float -> float option
(** Seconds until the earliest backoff gate among queued jobs opens;
    [None] when some job is ready now or the queue is empty. Lets the
    drain loop sleep exactly as long as needed. *)
