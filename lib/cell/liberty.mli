(** Liberty (.lib) export of a cell library.

    Emits the subset of the Synopsys Liberty format that downstream tools
    (and humans) need to inspect the synthetic library: cell areas, pin
    directions and capacitances, a linear delay template, and the cell
    function as a Boolean expression derived from the pattern tree. *)

val print : Library.t -> string
(** Render the whole library as Liberty text. *)

val function_of_cell : Cell.t -> string
(** Liberty boolean expression of a cell, e.g. ["!((a b) + c)"] for AOI21.
    Pin names are [a, b, c, d] in pattern-variable order. *)
