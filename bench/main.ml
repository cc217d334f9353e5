(* Paper reproduction: regenerates every table and figure of the paper's
   evaluation section (Tables 1-5, Figures 1 and 3) on synthetic IWLS-like
   workloads, plus the design-choice ablation sweep. The output is
   deterministic. Performance is measured by calsbench/ (end-to-end and
   per-layer metrics, bounds in BENCHMARK.json), not here. See
   EXPERIMENTS.md for the paper-vs-measured comparison. *)

module Rng = Cals_util.Rng
module Geom = Cals_util.Geom
module Tables = Cals_util.Tables
module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Network = Cals_logic.Network
module Optimize = Cals_logic.Optimize
module Decompose = Cals_logic.Decompose
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Router = Cals_route.Router
module Congestion = Cals_route.Congestion
module Sta = Cals_sta.Sta
module Mapper = Cals_core.Mapper
module Incremental = Cals_core.Incremental
module Partition = Cals_core.Partition
module Flow = Cals_core.Flow
module Presets = Cals_workload.Presets
module Estimate = Cals_estimate.Estimate

let library = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry library
let wire = Cals_cell.Library.wire library

let k_schedule = Flow.default_k_schedule

(* ------------------------------------------------------------------ *)
(* Benchmark circuits                                                  *)
(* ------------------------------------------------------------------ *)

type circuit = {
  name : string;
  subject : Subject.t;
  floorplan : Floorplan.t;
  positions : Geom.point array;  (** Companion placement, computed once. *)
}

(* Die sized so that the min-area mapping lands at the utilization the
   calibration found to sit at the routability edge. *)
let target_utilization = 0.58

let build_circuit ~name ~seed ~scale ~make_network =
  let network = make_network ~seed ~scale in
  Network.sweep network;
  let subject = Decompose.subject_of_network network in
  let floorplan =
    Floorplan.for_subject ~utilization:target_utilization ~geometry subject
  in
  let rng = Rng.create (seed * 7919) in
  let positions = Placement.place_subject subject ~floorplan ~rng in
  { name; subject; floorplan; positions }

let spla ~scale =
  build_circuit ~name:"SPLA" ~seed:7 ~scale ~make_network:(fun ~seed ~scale ->
      Presets.spla_like ~scale ~seed ())

let pdc ~scale =
  build_circuit ~name:"PDC" ~seed:11 ~scale ~make_network:(fun ~seed ~scale ->
      Presets.pdc_like ~scale ~seed ())

(* ------------------------------------------------------------------ *)
(* One K point: map -> seeded placement -> route                       *)
(* ------------------------------------------------------------------ *)

type point_result = {
  k : float;
  mapped : Mapped.t;
  placement : Placement.mapped_placement option;
  routing : Router.result option;
}

(* A warmed mapping session over the circuit's companion placement; its
   options are every mapper setting but K. *)
let session_of ?(options = Mapper.congestion_aware ~k:0.0) circuit =
  let session =
    Incremental.create ~options ~subject:circuit.subject ~library
      ~positions:circuit.positions ()
  in
  Incremental.warm session;
  session

let run_point session circuit k =
  let _, (mapped, placement, routing) =
    Flow.evaluate_k ~estimate:Estimate.Off ~session ~subject:circuit.subject
      ~library ~floorplan:circuit.floorplan ~positions:circuit.positions ~k ()
  in
  { k; mapped; placement; routing }

(* ------------------------------------------------------------------ *)
(* Tables 2 and 4: K sweep                                             *)
(* ------------------------------------------------------------------ *)

let k_sweep_table circuit =
  Printf.printf "%s: %d base gates (%d NAND2 + %d INV), floorplan %s\n"
    circuit.name
    (Subject.num_gates circuit.subject)
    (Subject.num_nand2 circuit.subject)
    (Subject.num_inv circuit.subject)
    (Floorplan.describe circuit.floorplan);
  let session = session_of circuit in
  let rows =
    List.map
      (fun k ->
        let p = run_point session circuit k in
        let area = Mapped.total_area p.mapped in
        let util =
          100.0 *. Floorplan.utilization circuit.floorplan ~cell_area:area
        in
        let violations =
          match p.routing with
          | Some r -> string_of_int r.Router.violations
          | None -> "DNF"
        in
        let hpwl =
          match p.placement with
          | Some pl -> Tables.fmt_int (int_of_float pl.Placement.hpwl)
          | None -> "-"
        in
        [
          Printf.sprintf "%g" k;
          Tables.fmt_int (int_of_float area);
          Tables.fmt_int (Mapped.num_cells p.mapped);
          Tables.fmt_float 2 util;
          hpwl;
          violations;
        ])
      k_schedule
  in
  print_string
    (Tables.render
       ~title:
         (Printf.sprintf "%s congestion minimization vs place&route results"
            circuit.name)
       ~header:
         [ "K"; "Cell Area (um2)"; "No. of Cells"; "Area Utilization%";
           "HPWL (um)"; "Routing violations" ]
       [ Tables.Left; Tables.Right; Tables.Right; Tables.Right; Tables.Right;
         Tables.Right ]
       rows);
  print_newline ()

let table2 ~scale = k_sweep_table (spla ~scale)
let table4 ~scale = k_sweep_table (pdc ~scale)

(* ------------------------------------------------------------------ *)
(* Tables 3 and 5: static timing analysis                              *)
(* ------------------------------------------------------------------ *)

(* The "SIS" netlist: aggressive technology-independent optimization first,
   then min-area mapping of its own decomposition. *)
let sis_variant circuit make_network ~seed ~scale =
  let network = make_network ~seed ~scale in
  Network.sweep network;
  Optimize.script_area ~rounds:1 network;
  let subject = Decompose.subject_of_network network in
  let rng = Rng.create (seed * 104729) in
  let positions = Placement.place_subject subject ~floorplan:circuit.floorplan ~rng in
  { circuit with name = circuit.name ^ "-SIS"; subject; positions }

let sta_point circuit k =
  let p = run_point (session_of circuit) circuit k in
  match (p.placement, p.routing) with
  | Some placement, Some routing ->
    let report =
      Sta.analyze ~net_length_um:routing.Router.net_length_um p.mapped ~wire
        ~placement
    in
    Some (p, placement, routing, report)
  | _ -> None

let sta_table ~scale ~circuit_of ~make_network ~seed =
  let circuit = circuit_of ~scale in
  let sis = sis_variant circuit make_network ~seed ~scale in
  let k_star = 0.001 in
  (* Reference path: endpoints of the K = 0 critical path. *)
  let reference = sta_point circuit 0.0 in
  let named =
    [
      ("0.0", fun () -> reference);
      (Printf.sprintf "%g" k_star, fun () -> sta_point circuit k_star);
      ("SIS", fun () -> sta_point sis 0.0);
    ]
  in
  let ref_pi, ref_po =
    match reference with
    | Some (_, _, _, r) -> (r.Sta.critical.Sta.through_pi, r.Sta.critical.Sta.po)
    | None -> ("-", "-")
  in
  let rows =
    List.filter_map
      (fun (label, point) ->
        match point () with
        | None -> Some [ label; "does not fit"; "-"; "-"; "-" ]
        | Some (p, placement, routing, report) ->
          let same_path =
            match
              Sta.po_arrival_from_pi ~net_length_um:routing.Router.net_length_um
                p.mapped ~wire ~placement ~pi:ref_pi ~po:ref_po
            with
            | Some t -> Printf.sprintf "%s (in)  %s (out)  %.2f" ref_pi ref_po t
            | None -> "path absent"
          in
          Some
            [
              label;
              Sta.endpoint_to_string report.Sta.critical;
              same_path;
              Printf.sprintf "%d" routing.Router.violations;
              Tables.fmt_int (int_of_float routing.Router.wirelength_um);
            ])
      named
  in
  print_string
    (Tables.render
       ~title:(Printf.sprintf "%s static timing analysis results" circuit.name)
       ~header:
         [ "K"; "Critical path arrival (ns)"; "Same path as K=0 critical";
           "Violations"; "Routed WL (um)" ]
       [ Tables.Left; Tables.Left; Tables.Left; Tables.Right; Tables.Right ]
       rows);
  print_newline ()

let table3 ~scale =
  sta_table ~scale ~circuit_of:spla ~seed:7 ~make_network:(fun ~seed ~scale ->
      Presets.spla_like ~scale ~seed ())

let table5 ~scale =
  sta_table ~scale ~circuit_of:pdc ~seed:11 ~make_network:(fun ~seed ~scale ->
      Presets.pdc_like ~scale ~seed ())

(* ------------------------------------------------------------------ *)
(* Table 1: TOO_LARGE, SIS flow vs DAGON flow in the same floorplan    *)
(* ------------------------------------------------------------------ *)

let table1 ~scale =
  let seed = 5 in
  let make ~seed ~scale = Presets.too_large_like ~scale ~seed () in
  let baseline =
    build_circuit ~name:"TOO_LARGE" ~seed ~scale ~make_network:make
  in
  let sis = sis_variant baseline make ~seed ~scale in
  (* Both flows place & route inside the baseline's floorplan, like the
     paper's identical-die comparison. *)
  let sis = { sis with floorplan = baseline.floorplan } in
  Printf.printf
    "TOO_LARGE: baseline %d base gates, SIS-optimized %d base gates, die %s\n"
    (Subject.num_gates baseline.subject)
    (Subject.num_gates sis.subject)
    (Floorplan.describe baseline.floorplan);
  let rows =
    List.map
      (fun (label, circuit) ->
        let options =
          { (Mapper.congestion_aware ~k:0.0) with strategy = Partition.Dagon }
        in
        let p = run_point (session_of ~options circuit) circuit 0.0 in
        let area = Mapped.total_area p.mapped in
        let util = 100.0 *. Floorplan.utilization circuit.floorplan ~cell_area:area in
        let violations =
          match p.routing with
          | Some r -> string_of_int r.Router.violations
          | None -> "DNF"
        in
        [
          label;
          Tables.fmt_int (int_of_float area);
          string_of_int circuit.floorplan.Floorplan.num_rows;
          Tables.fmt_float 2 util;
          violations;
        ])
      [ ("SIS", sis); ("DAGON", baseline) ]
  in
  print_string
    (Tables.render ~title:"TOO_LARGE routing results"
       ~header:
         [ ""; "Cell Area (um2)"; "No. of Rows"; "Area Utilization%";
           "Routing violations" ]
       [ Tables.Left; Tables.Right; Tables.Right; Tables.Right; Tables.Right ]
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 1: min-area vs congestion mapping on the micro example       *)
(* ------------------------------------------------------------------ *)

let figure1 () =
  let subject, positions = Presets.figure1 () in
  print_endline "Figure 1: minimum-area vs congestion mapping of f = NOT(a*b + c)";
  let session = Incremental.create ~subject ~library ~positions () in
  let show label k =
    let mapped = (Incremental.map session ~k).Mapper.mapped in
    let cells =
      Mapped.cell_histogram mapped
      |> List.map (fun (n, c) -> Printf.sprintf "%dx%s" c n)
      |> String.concat " + "
    in
    (* Total fanin wirelength from the mapped seeds. *)
    let wl = ref 0.0 in
    Array.iteri
      (fun _ inst ->
        Array.iter
          (fun s ->
            let src =
              match s with
              | Mapped.Of_pi i ->
                (* PI pads sit at the subject PI positions here. *)
                let rec find v =
                  match subject.Subject.gates.(v) with
                  | Subject.Pi idx when idx = i -> positions.(v)
                  | _ -> find (v + 1)
                in
                find 0
              | Mapped.Of_inst j -> mapped.Mapped.instances.(j).Mapped.seed
            in
            wl := !wl +. Geom.manhattan src inst.Mapped.seed)
          inst.Mapped.fanins)
      mapped.Mapped.instances;
    Printf.printf "  %-22s %-28s area %6.2f um2, fanin wirelength %7.1f um\n"
      label cells (Mapped.total_area mapped) !wl
  in
  show "1. minimum area (K=0)" 0.0;
  show "2. congestion (K=0.05)" 0.05;
  print_endline
    "  The congestion-aware cover pays cell area to place fanin gates near\n\
    \  their fanouts, cutting the wirelength (paper, Figure 1).";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Figure 3: the methodology loop                                      *)
(* ------------------------------------------------------------------ *)

let figure3 ~scale =
  print_endline "Figure 3: congestion-aware synthesis flow (K escalation)";
  let network = Presets.spla_like ~scale:(scale *. 0.6) ~seed:21 () in
  Network.sweep network;
  let subject = Decompose.subject_of_network network in
  let floorplan = Floorplan.for_subject ~utilization:0.5 ~geometry subject in
  let outcome, _ =
    Flow.run_adaptive ~subject ~library ~floorplan ~rng:(Rng.create 22) ()
  in
  List.iter
    (fun it ->
      Printf.printf
        "  K=%-8g cells=%-5d util=%5.2f%%  %s%s\n" it.Flow.k it.Flow.cells
        (100.0 *. it.Flow.utilization)
        (Congestion.summary it.Flow.report)
        (if it.Flow.estimated then " [estimated]" else ""))
    outcome.Flow.iterations;
  (match outcome.Flow.accepted with
  | Some it -> Printf.printf "  -> congestion OK at K=%g; proceed to final P&R\n" it.Flow.k
  | None -> print_endline "  -> no K in the schedule satisfied the congestion map");
  (match outcome.Flow.routing with
  | Some r ->
    print_endline "  final congestion map:";
    print_string (Congestion.ascii_map r)
  | None -> ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablations ~scale =
  let circuit = spla ~scale:(scale *. 0.6) in
  Printf.printf "Ablations on %s (%d gates)\n" circuit.name
    (Subject.num_gates circuit.subject);
  let evaluate label options =
    let p =
      run_point (session_of ~options circuit) circuit options.Mapper.k
    in
    let mapped = p.mapped in
    match (p.placement, p.routing) with
    | None, _ | _, None ->
      [ label; Tables.fmt_int (int_of_float (Mapped.total_area mapped));
        string_of_int (Mapped.num_cells mapped); "-"; "DNF" ]
    | Some placement, Some routing ->
      [
        label;
        Tables.fmt_int (int_of_float (Mapped.total_area mapped));
        string_of_int (Mapped.num_cells mapped);
        Tables.fmt_int (int_of_float placement.Placement.hpwl);
        string_of_int routing.Router.violations;
      ]
  in
  let k = 0.001 in
  let base = Mapper.congestion_aware ~k in
  let rows =
    [
      evaluate "PDP + Eq.5 (paper)" base;
      evaluate "DAGON partitioning" { base with Mapper.strategy = Partition.Dagon };
      evaluate "MIS cones" { base with Mapper.strategy = Partition.Cone };
      evaluate "Euclidean distance" { base with Mapper.distance = Geom.Euclidean };
      evaluate "no WIRE2 (Eq.3 off)" { base with Mapper.include_wire2 = false };
      evaluate "no incremental update" { base with Mapper.incremental_update = false };
      evaluate "transitive wire [9]" { base with Mapper.transitive_wire = true };
      evaluate "min-area (K=0)" Mapper.min_area;
    ]
  in
  print_string
    (Tables.render
       ~title:(Printf.sprintf "Design-choice ablations at K=%g" k)
       ~header:[ "Variant"; "Cell Area"; "Cells"; "HPWL (um)"; "Violations" ]
       [ Tables.Left; Tables.Right; Tables.Right; Tables.Right; Tables.Right ]
       rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

open Cmdliner

let scale_arg =
  let doc = "Workload scale relative to the paper's gate counts." in
  Arg.(value & opt float Presets.default_scale & info [ "scale" ] ~doc)

let full_arg =
  let doc = "Use the paper's full circuit sizes (scale = 1.0)." in
  Arg.(value & flag & info [ "full" ] ~doc)

let table_arg =
  let doc = "Run only the given table (repeatable: 1-5)." in
  Arg.(value & opt_all int [] & info [ "table" ] ~doc)

let figure_arg =
  let doc = "Run only the given figure (repeatable: 1, 3)." in
  Arg.(value & opt_all int [] & info [ "figure" ] ~doc)

let ablation_arg =
  let doc = "Also run the design-choice ablation sweep." in
  Arg.(value & flag & info [ "ablation" ] ~doc)

let main scale full tables figures with_ablations =
  let scale = if full then 1.0 else scale in
  let selective = tables <> [] || figures <> [] in
  let want_table i =
    ((not selective) && figures = []) || List.mem i tables
  in
  let want_figure i = (not selective) || List.mem i figures in
  if want_table 1 then table1 ~scale;
  if want_table 2 then table2 ~scale;
  if want_table 3 then table3 ~scale;
  if want_table 4 then table4 ~scale;
  if want_table 5 then table5 ~scale;
  if want_figure 1 then figure1 ();
  if want_figure 3 then figure3 ~scale;
  if with_ablations then ablations ~scale

let cmd =
  let doc = "Regenerate the paper's tables and figures" in
  Cmd.v
    (Cmd.info "cals-bench" ~doc)
    Term.(
      const main $ scale_arg $ full_arg $ table_arg $ figure_arg $ ablation_arg)

let () = exit (Cmd.eval cmd)
