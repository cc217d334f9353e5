(** Congestion-aware global router.

    Pipeline: pins → gcells → MST two-pin segments → congestion-aware
    pattern routing (L and Z shapes) → negotiated maze rip-up & reroute of
    segments crossing overflowed edges. The residual total overflow is the
    repo's stand-in for the "number of routing violations" that Silicon
    Ensemble reports in the paper's tables.

    Committed paths live in a flat integer arena rather than per-edge
    list cells, and the maze search runs over preallocated flat arrays;
    each domain keeps both and reuses them from call to call.
    Rip-up proceeds in waves of segments with disjoint search boxes, so
    the searches of one wave can run on a {!Cals_util.Pool} without
    changing the result. Each negotiation iteration colours all of its
    waves in one first-fit pass ({!Wave}), and each wave's searches
    write their paths into disjoint slices of one reusable buffer (see
    DESIGN.md, Section 4j). *)

type config = {
  layers : int;  (** Metal layers (the paper uses 3). *)
  reroute_iterations : int;  (** Negotiation iterations at most. *)
}
(** The router's only settings. The gcell size and M1 share are
    {!Rgrid}'s, and negotiation costs an edge 4.0 per unit of overflow
    and raises an overflowed edge's history by 1.0 per iteration. *)

val default_config : config
(** 3 layers, 16 negotiation iterations. *)

type route = {
  net : int;  (** Index into the input net array. *)
  gends : (int * int) * (int * int);  (** Segment endpoint gcells. *)
  edges : Rgrid.edge list;  (** Final committed path (empty iff ends equal). *)
}
(** One two-pin segment's final route, kept so that verification can
    re-derive edge usage and net connectivity from first principles. *)

type result = {
  grid : Rgrid.t;
  violations : int;  (** Rounded total overflow after negotiation. *)
  total_overflow : float;
  wirelength_um : float;  (** Total routed length. *)
  max_utilization : float;
  num_nets : int;
  num_segments : int;
  net_length_um : float array;  (** Routed length per input net. *)
  routes : route array;  (** One entry per segment, in commit order. *)
  gcell_start : int array;  (** The request's {!Request.t.gcell_start}. *)
  net_gcells : int array;
      (** The request's {!Request.t.net_gcells}: each input net's distinct
          pin gcell ids [c * grid.rows + r] (the vertices the net's
          segments must connect). *)
}

(** One route request: everything a route depends on, derived once.
    The router, the congestion forecast and the {!Session} fingerprint
    all read it, so they can never disagree on a pin gcell, the grid
    dimensions or a density bin: {!Request.of_pins} and
    {!Request.of_mapped} are the only places that clamp pins to gcells,
    build pin clusters and bin cell area.

    Nets are flat (CSR): net [n]'s pins are [pin_start.(n)] to
    [pin_start.(n + 1) - 1] of [pins] and [pin_gcells], its distinct
    gcells [gcell_start.(n)] to [gcell_start.(n + 1) - 1] of
    [net_gcells]. A gcell id is [c * rows + r] ({!Rgrid.gcell_id}), so
    sorted ids are sorted by column, then row. *)
module Request : sig
  type t = private {
    config : config;
    floorplan : Cals_place.Floorplan.t;
    wire : Cals_cell.Library.wire_model;
    cols : int;  (** Grid geometry, from {!Rgrid.dims}. *)
    rows : int;
    gcell_um : float;
    pin_start : int array;  (** Length [num_nets + 1]. *)
    pins : Cals_util.Geom.point array;  (** Net after net, driver first. *)
    pin_gcells : int array;  (** Each pin's gcell id, in [pins] order. *)
    gcell_start : int array;  (** Length [num_nets + 1]. *)
    net_gcells : int array;  (** Each net's sorted distinct pin gcell ids. *)
    density : Cals_util.Grid2d.t option;
        (** Cell-area fraction per gcell (see {!Rgrid.create}). *)
  }

  val num_nets : t -> int

  val of_pins :
    ?config:config ->
    ?density:Cals_util.Grid2d.t ->
    floorplan:Cals_place.Floorplan.t ->
    wire:Cals_cell.Library.wire_model ->
    Cals_util.Geom.point list array ->
    t
  (** One net per array slot, driver first; off-die pins clamp into the
      grid. *)

  val of_mapped :
    ?config:config ->
    Cals_netlist.Mapped.t ->
    floorplan:Cals_place.Floorplan.t ->
    wire:Cals_cell.Library.wire_model ->
    placement:Cals_place.Placement.mapped_placement ->
    t
  (** The placement's {!Cals_netlist.Mapped.net_table}, its pins read from
      the placement's [cell_pos], [pi_pos] and [po_pos] now, so a
      result's [net_length_um] can be indexed by
      {!Cals_netlist.Mapped.signal_index}; sinkless nets have no pins.
      The density map bins each placed cell's area into its gcell. *)
end

val iter_segments : Request.t -> (int -> int -> int -> unit) -> unit
(** [iter_segments req f] calls [f net src dst] for every two-pin segment
    of the request, net by net, on gcell ids: the {!Topology.iter_mst}
    of each net's distinct gcells. {!val:route} and {!Cut} take their
    segments from here. *)

(** A replay cache over whole route requests.

    A session fingerprints each {!Request.t} it routes (grid geometry,
    config, wire pitch, density contents and per-net gcell sets) and
    replays the stored {!result} on an exact match — the common case
    when a K search or a batch of jobs re-evaluates an unchanged
    mapping. Replayed results are shared structure: treat them as
    immutable. A miss routes cold, exactly as without a session, so a
    session never changes a result. A call that raises (a cancelled
    route) stores nothing.

    A session is not domain-safe: use one from one domain at a time. *)
module Session : sig
  type t

  type stats = {
    route_calls : int;  (** {!val:route} calls made with this session. *)
    replays : int;  (** Calls answered whole from the replay cache. *)
    nets_rerouted : int;  (** Nets of the calls that routed cold. *)
  }

  val create : unit -> t

  val stats : t -> stats
end

(** A proof that a request cannot route clean, from cut lines alone.

    The router commits each two-pin segment as a 4-connected gcell path
    adding 1.0 to every edge it uses. A segment whose end columns lie on
    both sides of the cut line between gcell columns [c] and [c+1]
    therefore uses at least one horizontal edge of that line (row lines
    likewise take vertical edges). Usage is integral, so when a line's
    crossings exceed the sum of its edges' floored capacities, some edge
    of it overflows and [violations >= 1], whatever negotiation, the
    widened-box fallback or a kept old path does: every committed path
    still joins its segment's ends.

    Segments come from the same decomposition {!val:route} uses, and the
    capacities from {!Rgrid.hcapacity} and {!Rgrid.vcapacity}, which
    {!Rgrid.create} fills its grid with, so they are the router's bits.
    No grid is built: the cost is the topology derivation plus one pass
    over the edges. *)
module Cut : sig
  type axis =
    | Column  (** The line between gcell columns [index] and [index + 1]. *)
    | Row  (** The line between gcell rows [index] and [index + 1]. *)

  type line = {
    axis : axis;
    index : int;
    crossings : int;  (** Segments with ends on both sides of the line. *)
    floored_capacity : int;  (** Sum of the line's floored edge capacities. *)
  }

  type t = {
    certified : bool;
        (** Some line has [crossings > floored_capacity]: no route of the
            request is clean. *)
    bound : float;
        (** [Σ_lines max 0 (crossings - Σ capacity)] with unfloored
            capacities: a lower bound on the routed total overflow. (A
            floored sum is not one, so it is not reported.) *)
    worst : line;
        (** The line with the largest [crossings - floored_capacity],
            the first such line on ties (columns before rows). *)
  }

  val of_request : Request.t -> t

  val violations : t -> int
  (** [max 1 (ceil (bound - 1e-6))]: a lower bound on the routed
      [violations] of a certified request. The slack absorbs
      float rounding, since the router sums the same overflow in another
      order. Meaningless when [certified] is false. *)

  val axis_to_string : axis -> string
end

val route :
  ?cancel:Cals_util.Cancel.t ->
  ?session:Session.t ->
  ?pool:Cals_util.Pool.t ->
  Request.t ->
  result
(** Route every net of the request (nets with fewer than two distinct
    gcells cost no routing). The result's [net_gcells] is the request's.

    [session] replays the result of an earlier call with an equal request
    (see {!Session}); without one, every call routes cold. [pool]
    parallelizes the maze searches of each rip-up wave; the result is
    identical with or without it, because waves commit deferred and in a
    fixed order. Do not pass a pool whose workers are the callers of
    this function (the pool is not reentrant).

    [cancel] (default {!Cals_util.Cancel.never}) is checked before the
    pattern phase, at the top of every negotiation iteration and before
    every ripped-up segment's maze search; a fired token unwinds with
    {!Cals_util.Cancel.Cancelled}, leaving only the result unbuilt: the
    session stores nothing, and the domain's routing state is cleared
    by the next call, so a cancelled call leaks nothing. This is the
    router half of the deadline propagation the batch service relies
    on. *)

val route_mapped :
  ?session:Session.t ->
  Cals_netlist.Mapped.t ->
  floorplan:Cals_place.Floorplan.t ->
  wire:Cals_cell.Library.wire_model ->
  placement:Cals_place.Placement.mapped_placement ->
  result
(** {!val:route} of {!Request.of_mapped} under {!default_config}. *)
