(* A miniature Table 2: sweep the congestion factor K on a PLA-style
   circuit and watch cell area rise while wirelength falls, with routing
   violations tracing the three-region behaviour of the paper.

   Usage: dune exec examples/kfactor_sweep.exe [-- SCALE]  (default 0.12) *)

module Flow = Cals_core.Flow
module Incremental = Cals_core.Incremental
module Subject = Cals_netlist.Subject
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Congestion = Cals_route.Congestion

let () =
  let scale =
    if Array.length Sys.argv > 1 then float_of_string Sys.argv.(1) else 0.12
  in
  let library = Cals_cell.Stdlib_018.library in
  let geometry = Cals_cell.Library.geometry library in
  let network = Cals_workload.Presets.spla_like ~scale ~seed:7 () in
  Cals_logic.Network.sweep network;
  let subject = Cals_logic.Decompose.subject_of_network network in
  let floorplan = Floorplan.for_subject ~utilization:0.58 ~geometry subject in
  Printf.printf "circuit: %d base gates, die %s\n\n"
    (Subject.num_gates subject)
    (Floorplan.describe floorplan);
  let positions =
    Placement.place_subject subject ~floorplan ~rng:(Cals_util.Rng.create 3)
  in
  let session = Incremental.create ~subject ~library ~positions () in
  Incremental.warm session;
  Printf.printf "%-9s %-7s %-10s %-7s %-10s %s\n" "K" "cells" "area" "util%"
    "hpwl" "violations";
  List.iter
    (fun k ->
      let it, _ =
        Flow.evaluate_k ~session ~subject ~library ~floorplan ~positions ~k ()
      in
      Printf.printf "%-9g %-7d %-10.0f %-7.2f %-10.0f %d\n" k it.Flow.cells
        it.Flow.cell_area
        (100.0 *. it.Flow.utilization)
        it.Flow.hpwl_um it.Flow.report.Congestion.violations)
    Flow.default_k_schedule
