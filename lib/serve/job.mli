(** One job's lifecycle inside the service.

    A job is a {!Proto.spec} plus the mutable state the scheduler needs:
    how many times it ran, when it may run again (retry backoff), and
    how it ended. Jobs are owned by exactly one party at a time — the
    {!Queue} while waiting, the scheduler while running — so the
    mutable fields need no locking of their own. *)

(** Why a run of the job did not complete. *)
type fault =
  | Timed_out of float  (** Deadline that expired, in seconds. *)
  | Violation of { stage : string; detail : string }
      (** The verification layer rejected the result
          ({!Cals_verify.Check.Violation}). *)
  | Input_error of string
      (** The job's circuit cannot be loaded: a missing or malformed file
          or an unknown preset. Deterministic, so never retried. *)
  | Crashed of string  (** Any other exception, printed. *)

type status =
  | Pending  (** Waiting in the queue (fresh or awaiting retry). *)
  | Running
  | Done  (** Completed; artifacts written. *)
  | Quarantined of fault
      (** Gave up after the retry budget, or at once on an input error. *)

type t = {
  spec : Proto.spec;
  submitted_at : float;  (** [Unix.gettimeofday] at submission. *)
  mutable status : status;
  mutable attempts : int;  (** Runs started so far. *)
  mutable not_before : float;  (** Backoff gate; 0. = run anytime. *)
  mutable last_fault : fault option;  (** Most recent failed run. *)
}

val create : now:float -> Proto.spec -> t

val fault_to_string : fault -> string
(** One line, e.g. ["timeout after 2.50s"] or
    ["violation at route: ..."]. *)

val ready : t -> now:float -> bool
(** Pending and past its backoff gate. *)
