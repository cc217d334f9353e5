(** Standard-cell model.

    Geometry is row-based: a cell occupies [width_sites] placement sites of a
    fixed site width and row height (see {!Library.geometry}). The timing
    model is the classic linear one: pin-to-output delay is
    [intrinsic_ns + drive_kohm * load_pf]. *)

type t = {
  name : string;
  area : float;  (** µm², = width_sites * site_width * row_height. *)
  width_sites : int;
  patterns : Pattern.t list;
      (** Alternative base-gate shapes implementing the cell (e.g. the two
          associations of NAND4). All patterns of one cell must compute the
          same function and use the same number of variables. *)
  input_cap_pf : float;  (** Capacitance of each input pin. *)
  intrinsic_ns : float;  (** Load-independent delay component. *)
  drive_kohm : float;  (** Output resistance; delay slope vs load. *)
}

val num_inputs : t -> int
(** Input-pin count, derived from the patterns. *)

val make :
  name:string ->
  width_sites:int ->
  site_width:float ->
  row_height:float ->
  input_cap_pf:float ->
  intrinsic_ns:float ->
  drive_kohm:float ->
  Pattern.t list ->
  t
(** Builds a cell and checks pattern consistency: at least one pattern, all
    patterns valid, same arity, same truth table. Raises [Invalid_argument]
    otherwise. *)

val eval64 : t -> int64 array -> int64
(** Bit-parallel evaluation. *)

val delay_ns : t -> load_pf:float -> float
(** [intrinsic + drive * load]. *)
