(** A synthetic 0.18µm standard-cell library.

    Stand-in for CORELIB8DHS 2.0 (STMicroelectronics), which the paper uses
    but which is proprietary. Relative cell areas follow the same ordering
    as the paper's Figure 1 example: the multi-input min-area cover
    (NAND3 + AOI21 + 2 INV) is smaller than the congestion-friendly cover
    (2 OR2 + 2 NAND2 + INV). Timing parameters are typical 0.18µm values
    for the linear delay model. *)

val library : Library.t
(** The full library: INV, BUF, NAND2-4, NOR2-3, AND2-3, OR2-3, AOI21,
    AOI22, OAI21, OAI22, XOR2, XNOR2, MUX21. *)
