(** Global-routing grid (gcells and capacitated boundary edges).

    Capacity per edge derives from the gcell span, the routing pitch of the
    library wire model and the metal-layer budget — the "fixed amount of
    routing resources" of the paper. Layers above M1 contribute full track
    counts in alternating directions; M1 contributes only what the standard
    cells leave uncovered, so local placement density eats routing capacity
    (the mechanism behind the paper's observation that a cell-area penalty
    "limits the amount of available wiring resources"). Usage and
    negotiation history are mutable; the router owns them. *)

type t = private {
  cols : int;
  rows : int;
  gcell_um : float;  (** Edge length of one gcell. *)
  hcap : float array;  (** Per horizontal edge, (cols-1) * rows row-major. *)
  vcap : float array;  (** Per vertical edge, cols * (rows-1). *)
  husage : float array;
  vusage : float array;
  hhistory : float array;
  vhistory : float array;
  hmark : Bytes.t;  (** Overflow-mark bitfield, one bit per horizontal edge. *)
  vmark : Bytes.t;  (** Same for vertical edges. *)
}

type edge =
  | H of int * int  (** [H (c, r)]: between gcells (c,r) and (c+1,r). *)
  | V of int * int  (** [V (c, r)]: between (c,r) and (c,r+1). *)

val m1_free : float
(** The M1 track share per direction on an empty gcell: 1.3. It shrinks
    linearly to 0 as the gcell's cell-area density approaches 1. *)

val dims : floorplan:Cals_place.Floorplan.t -> int * int * float
(** [(cols, rows, gcell_um)] of the grid {!create} would build for this
    floorplan — the geometry without the capacity arrays. A route
    request ([Router.Request]) takes its pin gcells from it before any
    grid exists. *)

val gcell_index : gcell_um:float -> n:int -> float -> int
(** [int_of_float (v /. gcell_um)] clamped to [[0, n - 1]]: the gcell
    column (or row) of a die coordinate. The flow's only such clamp. *)

val gcell_at :
  cols:int -> rows:int -> gcell_um:float -> Cals_util.Geom.point -> int * int
(** {!gcell_index} on both axes: the gcell of a point on a [cols] x
    [rows] grid, before any grid exists. *)

val gcell_id :
  cols:int -> rows:int -> gcell_um:float -> Cals_util.Geom.point -> int
(** {!gcell_at} as one id [c * rows + r] ([g / rows] and [g mod rows]
    recover the pair): ids sort by column, then row, as the pairs do. *)

type track_model = {
  tracks : float;  (** Tracks per layer across a gcell: [gcell_um / pitch]. *)
  nh : float;  (** Routing layers above M1 running horizontally. *)
  nv : float;  (** Routing layers above M1 running vertically. *)
  density_at : int -> int -> float;
      (** Clamped cell-area fraction of gcell [(c, r)] (0 without a map). *)
}

val track_model :
  gcell_um:float ->
  wire:Cals_cell.Library.wire_model ->
  layers:int ->
  ?density:Cals_util.Grid2d.t ->
  unit ->
  track_model
(** The capacity model {!create} and the congestion forecast share: a
    direction offers [tracks * (nh or nv + m1_free * (1 - d))]. *)

val hcapacity : track_model -> int -> int -> float
(** [hcapacity m c r]: the capacity {!create} gives the
    horizontal edge [H (c, r)], with [d] the mean density of its two
    gcells. The router's cut certificate reads the same bits. *)

val vcapacity : track_model -> int -> int -> float
(** Same for the vertical edge [V (c, r)]. *)

val create :
  floorplan:Cals_place.Floorplan.t ->
  wire:Cals_cell.Library.wire_model ->
  layers:int ->
  ?density:Cals_util.Grid2d.t ->
  unit ->
  t
(** Gcells two row heights on a side, with the capacities of
    {!track_model}: M1 offers {!m1_free} tracks per direction, less the
    local [density] (cell-area fraction per gcell, clamped to [0,1]).
    Without a density map M1 is fully available. *)

val capacity : t -> edge -> float
(** Routing tracks the edge offers (fixed at {!create}). *)

val usage : t -> edge -> float
(** Tracks currently claimed by routed segments. *)

val overflow : t -> edge -> float
(** [max 0 (usage - capacity)]. *)

val total_overflow : t -> float
(** Sum of {!overflow} over every edge. *)

val max_utilization : t -> float
(** Largest [usage / capacity] over every edge with capacity. *)

val clear_overflow_marks : t -> unit
(** Zero the overflow-mark bitfields ({!mark_h}, {!mark_v}): a scratch
    set, one bit per edge, owned by the router's negotiation loop and
    unrelated to {!overflow}. *)

(** {2 Flat-index accessors}

    The router's hot loops address edges by flat array index — horizontal
    edge [(c, r)] at [r * (cols - 1) + c] of [hcap]/[husage]/[hhistory],
    vertical [(c, r)] at [r * cols + c] — instead of allocating {!edge}
    constructors. These variants operate on those indices directly; no
    bounds checks beyond the underlying array's. *)

val num_hedges : t -> int
(** [(cols - 1) * rows], the length of the horizontal edge arrays. *)

val mark_h : t -> int -> unit
(** Set a horizontal edge's overflow mark. *)

val mark_v : t -> int -> unit
(** Set a vertical edge's overflow mark. *)

val marked_h : t -> int -> bool
(** Whether {!mark_h} marked the edge since {!clear_overflow_marks}. *)

val marked_v : t -> int -> bool
(** Whether {!mark_v} marked the edge since {!clear_overflow_marks}. *)

val iter_overflowed : t -> h:(int -> unit) -> v:(int -> unit) -> unit
(** Call [h]/[v] with the flat index of every overflowed edge (usage
    strictly above capacity), horizontal edges first, row-major. *)

val congestion_map : t -> Cals_util.Grid2d.t
(** Per-gcell maximum of the utilizations of its incident edges. *)

val iter_edges : t -> (edge -> unit) -> unit
(** Every edge, horizontal first, row-major. *)
