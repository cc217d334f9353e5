(** Static timing analysis of a placed (optionally routed) mapped netlist.

    The PrimeTime role in the paper's Tables 3 and 5. Delay model:
    linear cell delay [intrinsic + drive * load] plus an Elmore wire term
    per net sink computed from placed distance (or routed net length when
    provided). Combinational, single rising analysis — the paper's
    circuits are combinational IWLS93 benchmarks. *)

type config = {
  input_drive_kohm : float;  (** Pad driver resistance for PI nets. *)
  output_load_pf : float;  (** Load each primary output must drive. *)
}

type endpoint = {
  po : string;
  through_pi : string;  (** Start of the latest path into this output. *)
  arrival_ns : float;
}

type report = {
  endpoints : endpoint array;  (** One per primary output. *)
  critical : endpoint;
  critical_path : (string * float) list;
      (** (instance label, arrival) from input to output. *)
  total_net_cap_pf : float;
}

val analyze :
  ?config:config ->
  ?net_length_um:float array ->
  Cals_netlist.Mapped.t ->
  wire:Cals_cell.Library.wire_model ->
  placement:Cals_place.Placement.mapped_placement ->
  report
(** [net_length_um], indexed like {!Cals_netlist.Mapped.nets}, supplies
    routed lengths (e.g. {!Cals_route.Router.result.net_length_um});
    otherwise the half-perimeter of each placed net is used. *)

val po_arrival_from_pi :
  ?config:config ->
  ?net_length_um:float array ->
  Cals_netlist.Mapped.t ->
  wire:Cals_cell.Library.wire_model ->
  placement:Cals_place.Placement.mapped_placement ->
  pi:string ->
  po:string ->
  float option
(** Arrival at [po] over paths starting at [pi] only — used to compare "the
    same path" across differently mapped netlists (Tables 3 and 5).
    [None] when no such path exists. *)

val endpoint_to_string : endpoint -> string
(** Paper-style rendering, e.g. ["i12 (in)  o30 (out)  21.48"]. *)
