(** Cooperative cancellation tokens with optional deadlines.

    A token is shared between the party that wants work stopped (a job
    scheduler enforcing a deadline) and the code doing the work. The
    work side calls {!check} at its natural safe points — once per K
    point in the flow loop, once per rip-up iteration and rerouted
    segment in the router — and unwinds with {!Cancelled} when the
    token has fired. Cancellation is therefore only as prompt as the
    checks are frequent: a single uninterruptible stage (one covering
    DP, one maze search) always runs to completion.

    Deadlines are expressed as an [expires] closure rather than a clock
    reading so this module stays dependency-free: the caller supplies
    [fun () -> Unix.gettimeofday () > t_deadline] (or any other
    predicate) and the token latches the first time it observes it
    true. All operations are domain-safe: the fired flag is an atomic,
    so worker domains may {!check} one token at once. *)

type t

exception Cancelled of string
(** Raised by {!check} on a fired token; carries the reason. A printer
    is registered, so an uncaught cancellation prints legibly. *)

val never : t
(** The no-op token: never fires. The default for every [?cancel]
    parameter in the tree, so un-parameterized callers pay one atomic
    load per check and nothing else. *)

val create : ?expires:(unit -> bool) -> unit -> t
(** A fresh token. [expires] (default [fun () -> false]) is polled by
    {!check}; the first [true] latches the token with reason
    ["deadline exceeded"], after which the closure is no longer
    consulted. *)

val check : t -> unit
(** @raise Cancelled when the token has fired. *)
