(** Product terms (cubes) over up to {!max_vars} Boolean variables.

    A cube is a conjunction of literals; each variable appears positively,
    negatively, or not at all. The representation is a pair of bit masks,
    which keeps the cube algebra used by kernel extraction and algebraic
    division allocation-free. *)

type t = private {
  pos : int;  (** Bit [i] set: positive literal on variable [i]. *)
  neg : int;  (** Bit [i] set: negative literal on variable [i]. *)
}

val max_vars : int
(** 60 — enough for every node and PLA this library builds. *)

val universe : t
(** The empty product (constant true). *)

val of_literals : (int * bool) list -> t
(** [(var, phase)] pairs; [phase = true] is the positive literal. Raises
    [Invalid_argument] on contradictions, duplicates or out-of-range vars. *)

val of_literals_merged : (int * bool) list -> t option
(** Like {!of_literals} but merges repeated literals on the same variable
    and returns [None] when two phases contradict (the empty product).
    Needed when a variable renaming is not injective, e.g. a node with two
    fanins wired to the same signal. *)

val literals : t -> (int * bool) list
(** Increasing variable order. *)

val lowest_var : int -> int
(** Index of the lowest set bit of a nonzero variable mask (e.g. of
    {!support}); [s land (s - 1)] clears it, so a loop over both visits a
    mask's variables in increasing order. *)

val lit : int -> bool -> t
(** Single-literal cube; [lit v phase] with [phase = true] positive. *)

val num_literals : t -> int
(** Number of literals (population count of both masks). *)

val support : t -> int
(** Mask of mentioned variables. *)

val has_var : t -> int -> bool
(** Whether the cube has a literal (either phase) on the variable. *)

val is_universe : t -> bool
(** Whether the cube is the empty product (constant true). *)

val inter : t -> t -> t option
(** Conjunction; [None] when the product is empty (x and x'). *)

val covers : t -> t -> bool
(** [covers c d]: every minterm of [d] satisfies [c] (c's literal set is a
    subset of d's). *)

val divide : t -> t -> t option
(** [divide c d] = the cube [q] with [c = q AND d], when [d]'s literals are
    a subset of [c]'s. *)

val remove_var : t -> int -> t
(** Drop any literal on the given variable. *)

val common : t -> t -> t
(** Largest cube dividing both (shared literals). *)

val eval64 : t -> int64 array -> int64
(** Evaluate over 64 assignments at once: bit [i] of input word [v] is
    variable [v] in assignment [i]. *)

val compare : t -> t -> int
(** Total order on the mask pair (arbitrary but deterministic). *)

val equal : t -> t -> bool
(** Mask equality — cubes are canonical, so this is semantic equality. *)

val to_string : ?names:string array -> t -> string
(** e.g. ["a b' d"]; ["<1>"] for the universe. *)
