(** Growable flat integer arena backed by a [Bigarray].

    A bump allocator for variable-length integer records (the router's
    committed edge-id paths): [alloc] hands out a contiguous slice at the
    end, [clear] recycles the whole arena in O(1), and the backing store
    survives between uses, so a long-lived owner (a router session) pays
    for the buffer once instead of re-allocating scratch on every call.
    The Bigarray lives outside the OCaml heap: slices written here are
    invisible to the GC, which is the point — path storage stops being
    minor-heap churn.

    Not domain-safe: one arena belongs to one routing call at a time
    (sessions hand them out through a mutex-guarded pool). *)

type t

type buffer = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : ?capacity:int -> unit -> t
(** A fresh arena with [capacity] slots reserved (default 1024). *)

val data : t -> buffer
(** The backing store. Only slices returned by {!alloc} hold data.
    Invalidated by any {!alloc} that grows the arena — re-fetch after
    allocating, never cache across calls. *)

val alloc : t -> int -> int
(** [alloc t n] reserves [n] slots and returns the offset of the first;
    grows the backing store (doubling) when needed. *)

val clear : t -> unit
(** Abandon every slice; capacity is retained. *)

val capacity_bytes : t -> int
(** Backing-store footprint in bytes. *)
