(** Floorplans: die outline, standard-cell rows and the pad ring.

    The paper's experiments fix a die size and row count per circuit and
    then ask whether each mapped netlist routes inside it; this module is
    where those constraints live. *)

type t = private {
  die_width : float;  (** µm, core width. *)
  die_height : float;  (** µm. *)
  row_height : float;
  site_width : float;
  num_rows : int;
  sites_per_row : int;
}

val of_rows :
  num_rows:int -> sites_per_row:int -> geometry:Cals_cell.Library.geometry -> t
(** Exact row/site grid (die dimensions derived). *)

val for_area :
  core_area:float ->
  utilization:float ->
  aspect:float ->
  geometry:Cals_cell.Library.geometry ->
  t
(** Square-ish die sized so that [core_area] occupies [utilization] of it;
    [aspect] = width / height. *)

val row_y : t -> int -> float
(** Center y of row [i]. *)

val row_of_y : t -> float -> int option
(** Inverse of {!row_y}: the row whose center is [y] (within 1e-6 µm),
    or [None] when [y] sits on no row — the placement-legality checkers'
    way of asking "is this cell row-aligned?". *)

val utilization : t -> cell_area:float -> float
(** Fraction of the core covered by [cell_area]. *)

val pad_positions : t -> names:string array -> Cals_util.Geom.point array
(** Deterministic pad ring: the [i]-th name is placed on the die perimeter,
    clockwise from the lower-left corner, evenly spaced. *)

val contains : t -> Cals_util.Geom.point -> bool
(** Whether a point lies on the die outline (borders included). *)

val describe : t -> string
(** One line for logs: dimensions, core area, rows and sites. *)
