(** Fixed-size fork/join work pool over OCaml 5 domains.

    A pool owns [jobs - 1] worker domains (the caller's domain is the
    remaining worker) fed from a shared task queue. The only scheduling
    primitive is {!map_array}, a deterministic fork/join: tasks are
    claimed by atomic index, every result lands at its own index, and the
    output is therefore independent of which domain ran what.

    Intended for coarse-grained tasks (a full map/place/route evaluation,
    not per-element arithmetic). Not reentrant: do not call {!map_array}
    from inside a task running on the same pool. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [max 0 (jobs - 1)] worker domains. [jobs <= 1]
    yields a pool that runs everything on the caller's domain. *)

val jobs : t -> int
(** Parallelism the pool was created with (always >= 1). *)

val map_array : t -> f:(int -> 'a -> 'b) -> 'a array -> 'b array
(** [map_array pool ~f arr] computes [[| f 0 arr.(0); ... |]], spreading
    the calls over the pool's domains, and returns once every element is
    done. Deterministic: the result array is identical to [Array.mapi f
    arr] whenever [f] is pure. If any call raises, the first exception
    (by completion order) is re-raised in the caller after all domains
    stop claiming work; remaining unclaimed elements are skipped.

    @raise Invalid_argument if the pool has been {!shutdown}: its
    workers are gone, so queued helper tasks would never run and the
    caller would deadlock waiting for them. *)

val shutdown : t -> unit
(** Joins the worker domains. Idempotent. Call when done with the pool;
    a pool left running keeps its domains blocked on the queue. *)
