(** Pattern trees: the logic function of a library cell expressed over the
    base gates of the subject graph (2-input NANDs and inverters).

    Technology mapping matches these trees structurally against subject
    trees. Leaves are input variables; a variable may occur more than once
    (e.g. XOR2), in which case a structural match must bind all of its
    occurrences to the same subject vertex. *)

type t =
  | Var of int  (** Input variable; indices are dense starting at 0. *)
  | Inv of t
  | Nand of t * t

val num_vars : t -> int
(** Number of distinct input variables ([max index + 1]). *)

val eval : t -> bool array -> bool
(** [eval p inputs] computes the pattern output; [inputs] must have at least
    [num_vars p] entries. *)

val eval64 : t -> int64 array -> int64
(** Bit-parallel evaluation over 64 input vectors at once. *)

val validate : t -> (unit, string) result
(** Checks variable indices are dense [0 .. n-1]. *)
