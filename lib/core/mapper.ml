module Span = Cals_telemetry.Span
module Metrics = Cals_telemetry.Metrics

let m_matches =
  Metrics.counter ~help:"Pattern matches evaluated by the tree coverer"
    "mapper_matches_evaluated"

let m_runs = Metrics.counter ~help:"Technology-mapping runs" "mapper_runs"

type options = {
  k : float;
  t : float;
  wire_scale : float;
  strategy : Partition.strategy;
  distance : Cals_util.Geom.point -> Cals_util.Geom.point -> float;
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
    distance = Cals_util.Geom.manhattan;
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
  trees : int;
}

type result = {
  mapped : Cals_netlist.Mapped.t;
  stats : stats;
  cover : Cover.t;
  partition : Partition.t;
}

let map ?(verify = false) ?partition ?matchsets subject ~library ~positions
    options =
  Span.with_ ~cat:"map" ~meta:(Printf.sprintf "K=%g" options.k) "mapper.map"
  @@ fun () ->
  Metrics.incr m_runs;
  let partition =
    match partition with
    | Some p -> p
    | None ->
      Span.with_ ~cat:"map" "mapper.partition" @@ fun () ->
      Partition.run options.strategy subject ~positions
        ~distance:options.distance
  in
  let cover_options =
    {
      Cover.k = options.k *. options.wire_scale;
      t = options.t;
      distance = options.distance;
      incremental_update = options.incremental_update;
      include_wire2 = options.include_wire2;
      transitive_wire = options.transitive_wire;
    }
  in
  let cover =
    Span.with_ ~cat:"map" "mapper.cover" @@ fun () ->
    Cover.run ?matchsets subject ~library ~partition ~positions cover_options
  in
  if verify then
    Cals_verify.Check.record ~stage:"cover" (Cover.check_coverage cover);
  let extraction =
    Span.with_ ~cat:"map" "mapper.extract" @@ fun () -> Cover.extract cover
  in
  let mapped = extraction.Cover.mapped in
  Metrics.add m_matches (Cover.matches_evaluated cover);
  let stats =
    {
      cells = Cals_netlist.Mapped.num_cells mapped;
      cell_area = Cals_netlist.Mapped.total_area mapped;
      matches_evaluated = Cover.matches_evaluated cover;
      duplicated_gates = extraction.Cover.duplicated_gates;
      taps = extraction.Cover.taps;
      trees = List.length partition.Partition.roots;
    }
  in
  { mapped; stats; cover; partition }
