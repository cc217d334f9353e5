(** Espresso PLA format reader (type fr / f).

    SPLA and PDC, the paper's two K-sweep benchmarks, are distributed as
    two-level PLA descriptions; this reader lets the flow consume the real
    files when available. Supports [.i], [.o], [.p], [.ilb], [.ob], [.type],
    [.e] and product-term lines. *)

exception Parse_error of string
(** Raised with a message containing the offending line number. *)

val parse : string -> Network.t
(** One network node per output, whose SOP collects the products with '1'
    (or '4') in that output column. *)

val print : Network.t -> string
(** Render a two-level network back to PLA. Raises [Invalid_argument] when
    some output is not a direct function of primary inputs. *)
