(** The list-based route request: {!Cals_netlist.Mapped.t}'s nets as
    per-net sink lists, each net's pins, pin gcells and sorted distinct
    gcells as OCaml lists, and its segments from a list-based Prim.
    {!Cals_netlist.Mapped.net_table},
    {!Cals_route.Router.Request.of_pins},
    {!Cals_route.Router.Request.of_mapped} and
    {!Cals_route.Router.iter_segments} must reproduce it exactly. It
    ships in no library; test_route compares the two. *)

type sink =
  | Cell_pin of int * int  (** Instance index, input-pin index. *)
  | Po of int  (** Index into [outputs]. *)

type net = {
  driver : Cals_netlist.Mapped.signal;
  sinks : sink list;  (** Cell pins by (instance, pin), then outputs. *)
}

val nets : Cals_netlist.Mapped.t -> net array
(** One net per signal, in {!Cals_netlist.Mapped.signal_index} order;
    sinkless nets included with an empty list. *)

type t = {
  cols : int;
  rows : int;
  pins : Cals_util.Geom.point list array;  (** Per net, driver first. *)
  pin_gcells : (int * int) list array;  (** Per pin, in [pins] order. *)
  net_gcells : (int * int) list array;  (** Sorted distinct, per net. *)
  density : Cals_util.Grid2d.t option;
}

val of_pins :
  ?density:Cals_util.Grid2d.t ->
  floorplan:Cals_place.Floorplan.t ->
  Cals_util.Geom.point list array ->
  t

val of_mapped :
  Cals_netlist.Mapped.t ->
  floorplan:Cals_place.Floorplan.t ->
  placement:Cals_place.Placement.mapped_placement ->
  t
(** Pins from {!nets} and the placement's position arrays; the density
    map bins each cell's area into its gcell. *)

val segments : t -> (int * (int * int) * (int * int)) list
(** Every two-pin segment as [(net, src, dst)], net by net: the MST of
    the net's distinct gcells. *)
