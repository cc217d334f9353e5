(** Cell-library container.

    A library bundles the cells available to technology mapping plus the
    geometry and interconnect parameters shared by the whole flow. Every
    library must contain the two base cells ([inv], [nand2]) so that any
    NAND2/INV subject graph has a trivial feasible cover. *)

type geometry = {
  site_width : float;  (** µm. *)
  row_height : float;  (** µm. *)
}

type wire_model = {
  res_kohm_per_um : float;  (** Wire resistance per µm. *)
  cap_pf_per_um : float;  (** Wire capacitance per µm. *)
  pitch_um : float;  (** Routing-track pitch, sets gcell capacity. *)
}

type t

val make : name:string -> geometry -> wire_model -> Cell.t list -> t
(** Raises [Invalid_argument] on duplicate cell names or when the base
    cells "INV" and "NAND2" are missing. *)

val name : t -> string
val geometry : t -> geometry
val wire : t -> wire_model
val cells : t -> Cell.t list
val find : t -> string -> Cell.t
(** Raises [Not_found]. *)

val find_opt : t -> string -> Cell.t option
val size : t -> int
(** Number of cells. *)
