type options = {
  k : float;
  t : float;
  wire_scale : float;
  strategy : Partition.strategy;
  distance : Cals_util.Geom.metric;
  incremental_update : bool;
  include_wire2 : bool;
  transitive_wire : bool;
}

let default_wire_scale = 200.0
let default_timing_weight = 50.0

let min_area =
  {
    k = 0.0;
    t = 0.0;
    wire_scale = default_wire_scale;
    strategy = Partition.Dagon;
    distance = Cals_util.Geom.Manhattan;
    incremental_update = true;
    include_wire2 = true;
    transitive_wire = false;
  }

let congestion_aware ~k = { min_area with k; strategy = Partition.Pdp }

type stats = {
  cells : int;
  cell_area : float;
  matches_evaluated : int;
  duplicated_gates : int;
  taps : int;
}

type result = {
  mapped : Cals_netlist.Mapped.t;
  stats : stats;
  cover : Cover.t;
}
