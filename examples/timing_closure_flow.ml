(* End-to-end flow with timing: generate, optimize lightly, decompose,
   place the unbound netlist, run the Figure-3 loop until the congestion
   map is clean, then report post-route static timing -- the full modified
   ASIC design flow of the paper. *)

module Flow = Cals_core.Flow
module Subject = Cals_netlist.Subject
module Floorplan = Cals_place.Floorplan
module Congestion = Cals_route.Congestion
module Router = Cals_route.Router
module Sta = Cals_sta.Sta

let () =
  let library = Cals_cell.Stdlib_018.library in
  let geometry = Cals_cell.Library.geometry library in
  let wire = Cals_cell.Library.wire library in

  print_endline "1. Technology-independent synthesis";
  let network = Cals_workload.Presets.pdc_like ~scale:0.1 ~seed:11 () in
  Cals_logic.Optimize.script_light network;
  let subject = Cals_logic.Decompose.subject_of_network network in
  Printf.printf "   %d base gates, %d PIs, %d POs\n\n"
    (Subject.num_gates subject) (Subject.num_pis subject)
    (Array.length subject.Subject.outputs);

  print_endline "2. Floorplan and congestion-aware mapping loop (Figure 3)";
  let floorplan = Floorplan.for_subject ~utilization:0.55 ~geometry subject in
  Printf.printf "   die: %s\n" (Floorplan.describe floorplan);
  let outcome, _ =
    Flow.run_adaptive ~subject ~library ~floorplan
      ~rng:(Cals_util.Rng.create 12) ()
  in
  List.iter
    (fun it ->
      Printf.printf "   K=%-8g %s%s\n" it.Flow.k
        (Congestion.summary it.Flow.report)
        (if it.Flow.estimated then " [estimated]" else ""))
    outcome.Flow.iterations;
  print_newline ();

  match (outcome.Flow.mapped, outcome.Flow.placement, outcome.Flow.routing) with
  | Some mapped, Some placement, Some routing ->
    print_endline "3. Post-route static timing analysis";
    let report =
      Sta.analyze ~net_length_um:routing.Router.net_length_um mapped ~wire
        ~placement
    in
    Printf.printf "   critical path: %s\n"
      (Sta.endpoint_to_string report.Sta.critical);
    print_endline "   stages:";
    List.iter
      (fun (label, t) -> Printf.printf "     %-16s %8.3f ns\n" label t)
      report.Sta.critical_path;
    Printf.printf "   slowest five endpoints:\n";
    report.Sta.endpoints |> Array.to_list
    |> List.sort (fun a b -> compare b.Sta.arrival_ns a.Sta.arrival_ns)
    |> (fun l -> List.filteri (fun i _ -> i < 5) l)
    |> List.iter (fun e -> Printf.printf "     %s\n" (Sta.endpoint_to_string e))
  | _ ->
    print_endline
      "3. No K in the schedule produced an acceptable congestion map;\n\
      \   relax the floorplan constraints or resynthesize (paper, Section 5)."
