(* Visualize the congestion map: route the same circuit mapped at K = 0 and
   at the congestion-aware K, and print both gcell heat maps with the
   router's verdicts. *)

module Mapper = Cals_core.Mapper
module Incremental = Cals_core.Incremental
module Subject = Cals_netlist.Subject
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Router = Cals_route.Router
module Congestion = Cals_route.Congestion

let () =
  let library = Cals_cell.Stdlib_018.library in
  let geometry = Cals_cell.Library.geometry library in
  let wire = Cals_cell.Library.wire library in
  let network = Cals_workload.Presets.spla_like ~scale:0.15 ~seed:9 () in
  Cals_logic.Network.sweep network;
  let subject = Cals_logic.Decompose.subject_of_network network in
  let floorplan = Floorplan.for_subject ~utilization:0.6 ~geometry subject in
  let positions =
    Placement.place_subject subject ~floorplan ~rng:(Cals_util.Rng.create 4)
  in
  let session = Incremental.create ~subject ~library ~positions () in
  Incremental.warm session;
  let route k =
    let mapped = (Incremental.map session ~k).Mapper.mapped in
    let placement = Placement.place_mapped_seeded mapped ~floorplan in
    Router.route_mapped mapped ~floorplan ~wire ~placement
  in
  let show k =
    let result = route k in
    let report = Congestion.of_result result in
    Printf.printf "K = %g: %s\n" k (Congestion.summary report);
    print_string (Congestion.ascii_map result);
    print_newline ()
  in
  Printf.printf "circuit: %d base gates, die %s\n\n"
    (Subject.num_gates subject)
    (Floorplan.describe floorplan);
  show 0.0;
  show 0.001;
  print_endline
    "Darker cells are closer to the routing capacity; the congestion-aware\n\
     mapping flattens the hot center that the min-area netlist creates."
