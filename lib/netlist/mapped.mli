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

type net_table = private {
  first : int array;
      (** Length [num_pis + num_cells + 1]: net [n]'s pins are
          [pins.(first.(n)) .. pins.(first.(n + 1) - 1)]. *)
  pins : int array;
      (** Pin ids, net after net: the driver first, then the cell-pin
          sinks by (instance, input pin), then the output sinks by
          output index; a cell reading a net on two pins appears twice.
          A sinkless net has no pins, not even its driver. A pin id is
          a placement node: [i] for instance [i], [num_cells + i] for
          PI [i]'s pad, [num_cells + num_pis + o] for output [o]'s
          pad. *)
}
(** Every net of the netlist in one flat (CSR) table, one net per
    signal in {!signal_index} order: PI nets first, then one per
    instance. *)

val net_table : t -> net_table

val signal_index : t -> signal -> int
(** Position of a signal's net inside {!net_table}. *)

(** {1 Simulation} *)

val simulate : t -> int64 array -> int64 array
(** Bit-parallel simulation; stimulus indexed like [pi_names], result like
    [outputs]. Used to verify that mapping preserved the function. *)

(** {1 Export} *)

val to_verilog : ?module_name:string -> t -> string
(** Structural Verilog (cells as module instantiations with pins
    [a, b, c, d] and output [y]). *)
