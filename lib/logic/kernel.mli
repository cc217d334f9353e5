(** Kernels and co-kernels of an SOP expression.

    A kernel of [f] is a cube-free quotient of [f] by a cube (the
    co-kernel). Kernels are the candidate multi-cube divisors used by the
    technology-independent extraction passes — exactly the "unrestrained
    factorization based on kernel extraction" whose congestion side-effects
    the paper studies. *)

type t = {
  cokernel : Cube.t;  (** The cube whose quotient yields [kernel]. *)
  kernel : Sop.t;  (** Cube-free, at least two cubes (or the whole f). *)
}

val all : Sop.t -> t list
(** Every kernel/co-kernel pair, by the classic recursive algorithm.
    Includes [f] itself (with universe co-kernel) when [f] is cube-free
    and has two or more cubes. *)
