(** Disjoint-set forest with path compression and union by rank.

    Used to check routed-net connectivity and to build spanning trees. *)

type t

val create : int -> t
(** [create n] makes [n] singleton sets labelled [0 .. n-1]. *)

val union : t -> int -> int -> bool
(** Merge the two sets; returns [false] when already merged. *)

val same : t -> int -> int -> bool
val count : t -> int
(** Number of disjoint sets remaining. *)
