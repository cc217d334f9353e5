(** Sum-of-products Boolean functions (cube lists).

    This is the node representation of the technology-independent network,
    the input to kernel extraction and to factoring. The constructor removes
    duplicate and single-cube-contained cubes, so values are in a canonical
    "minimal with respect to single-cube containment" form. *)

type t

val zero : t
(** Constant false (no cubes). *)

val one : t
(** Constant true (the universe cube). *)

val of_cubes : Cube.t list -> t
(** Deduplicates and drops covered cubes. *)

val cubes : t -> Cube.t list
(** The canonical cube list, in {!Cube.compare} order. *)

val num_cubes : t -> int
(** Number of product terms. *)

val num_literals : t -> int
(** Total literal count over all cubes — the SIS area proxy. *)

val support : t -> int
(** Mask of variables appearing in some cube. *)

val support_list : t -> int list
(** {!support} as an increasing variable list. *)

val is_zero : t -> bool
(** Whether the function is constant false. *)

val is_one : t -> bool
(** Whether the function is constant true. *)

val var : int -> t
(** The single positive literal on a variable, as a one-cube SOP. *)

val lit : int -> bool -> t
(** A single literal of either phase, as a one-cube SOP. *)

val sum : t -> t -> t
(** Boolean OR (cube-list union, re-canonicalized). *)

val product : t -> t -> t
(** Cube-by-cube product (drops empty products). *)

val cofactor : t -> int -> bool -> t
(** Shannon cofactor with respect to a literal. *)

val map_vars : (int -> int) -> t -> t
(** Rename variables; the mapping must be injective on the support. *)

val divide_by_cube : t -> Cube.t -> t * t
(** Algebraic division [(quotient, remainder)]: [f = q*c + r] with no cube
    of [r] divisible by [c]. *)

val divide : t -> t -> t * t
(** Weak (algebraic) division by a multi-cube divisor. *)

val largest_common_cube : t -> Cube.t
(** Largest cube dividing every cube ([universe] when none / empty sop). *)

val make_cube_free : t -> t
(** Divide out [largest_common_cube]. *)

val is_cube_free : t -> bool

val complement : ?max_cubes:int -> t -> t option
(** Shannon-recursion complement; [None] when the result would exceed
    [max_cubes] (default 512). *)

val substitute : t -> int -> t -> t
(** [substitute f v g] replaces the variable [v] in [f] by the function [g]
    (both phases; uses {!complement} internally, falling back to expanding
    the positive phase only — callers must check with [can_substitute]). *)

val can_substitute : ?max_cubes:int -> t -> int -> t -> bool
(** True when [substitute] can be performed exactly within the size cap. *)

val eval64 : t -> int64 array -> int64
(** Evaluate over 64 assignments at once: bit [i] of input word [v] is
    variable [v] in assignment [i]. *)

val equal : t -> t -> bool
(** Structural equality of canonical cube sets (not Boolean equivalence). *)

val to_string : ?names:string array -> t -> string
(** Cubes joined with [" + "], each via {!Cube.to_string}. *)
