(** Factored forms and algebraic factoring.

    Decomposition into base gates works from a factored form of each node
    function: the number of literals in the factored form tracks the final
    gate count much better than the flat SOP does (Brayton et al., the
    correlation the paper cites in its Section 1). *)

type t =
  | Lit of int * bool  (** Variable and phase. *)
  | And of t list  (** Two or more factors. *)
  | Or of t list  (** Two or more terms. *)
  | Const of bool

val factor : Sop.t -> t
(** Quick-factor: divide by the best kernel (falling back to the most
    frequent literal), recurse on quotient, divisor and remainder. *)

val num_literals : t -> int
(** Literal count of the factored form — the gate-count proxy. *)

val eval64 : t -> int64 array -> int64
(** Evaluate over 64 assignments at once: bit [i] of input word [v] is
    variable [v] in assignment [i]. *)
