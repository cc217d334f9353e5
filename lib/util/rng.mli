(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic component of the library (workload generation, placement
    tie-breaking, simulation vectors) threads one of these states so that runs
    are reproducible from a single integer seed. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator. Two generators created with the
    same seed produce identical streams. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val range : t -> int -> int -> int
(** [range t lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample : t -> int -> int -> int list
(** [sample t k n] draws [k] distinct integers from [\[0, n)] ([k <= n]). *)
