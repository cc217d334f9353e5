(** Mapped (technology-dependent) netlist: instances of library cells.

    The instance array is topologically ordered; instance fanins reference
    either a primary input or an earlier instance output. Each instance
    carries the seed position produced by the congestion-aware mapper (the
    center of mass of the base gates it covers), which physical design
    legalizes onto rows. *)

type signal =
  | Of_pi of int  (** Index into [pi_names]. *)
  | Of_inst of int  (** Output of instance [i]. *)

type instance = {
  cell : Cals_cell.Cell.t;
  fanins : signal array;  (** Length = cell input count. *)
  seed : Cals_util.Geom.point;
}

type t = private {
  pi_names : string array;
  instances : instance array;
  outputs : (string * signal) array;
}

val make :
  pi_names:string array ->
  instances:instance array ->
  outputs:(string * signal) array ->
  t
(** Validates topological order, signal ranges and fanin arities. *)

(** {1 Metrics} *)

val num_cells : t -> int
val total_area : t -> float

val cell_histogram : t -> (string * int) list
(** Instance count per cell name, sorted by name. *)

(** {1 Connectivity} *)

type sink =
  | Cell_pin of int * int  (** Instance index, input-pin index. *)
  | Po of int  (** Index into [outputs]. *)

type net = {
  driver : signal;
  sinks : sink list;
}

val nets : t -> net array
(** One entry per signal: indices [0 .. num_pis-1] are PI nets, then one
    per instance. Nets with no sinks are included (empty sink list). *)

val signal_index : t -> signal -> int
(** Position of a signal's net inside [nets]. *)

(** {1 Simulation} *)

val simulate : t -> int64 array -> int64 array
(** Bit-parallel simulation; stimulus indexed like [pi_names], result like
    [outputs]. Used to verify that mapping preserved the function. *)

(** {1 Export} *)

val to_verilog : ?module_name:string -> t -> string
(** Structural Verilog (cells as module instantiations with pins
    [a, b, c, d] and output [y]). *)
