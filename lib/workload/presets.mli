(** Named benchmark presets mirroring the paper's circuits.

    Sizes follow the IWLS93 originals (SPLA: 16/46, 22,834 base gates;
    PDC: 16/40, 23,058; TOO_LARGE: 27,977) scaled by a factor so that the
    default bench run finishes in minutes. [scale = 1.0] approximates the
    paper's gate counts. *)

val spla_like : ?scale:float -> seed:int -> unit -> Cals_logic.Network.t
val pdc_like : ?scale:float -> seed:int -> unit -> Cals_logic.Network.t
val too_large_like : ?scale:float -> seed:int -> unit -> Cals_logic.Network.t

val named : (string * (scale:float -> seed:int -> Cals_logic.Network.t)) list
(** The three presets under the names [cals] inputs and serve job specs
    use: ["spla"], ["pdc"] and ["too_large"]. *)

val default_scale : float
(** 0.25. *)

val figure1 :
  unit -> Cals_netlist.Subject.t * Cals_util.Geom.point array
(** The paper's Figure 1 micro-example: the subject graph of
    [f = NOT(a*b + c)] with hand positions placing [a, b] far from [c], so
    min-area covering picks one complex cell with long fanin wires while
    congestion-aware covering splits it into nearby simple cells. Returns
    the subject and a position per subject node. *)
