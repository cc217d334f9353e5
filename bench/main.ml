(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Tables 1-5, Figures 1 and 3) on synthetic IWLS-like
   workloads, plus ablation sweeps and Bechamel micro-benchmarks (one
   Test.make per table). See EXPERIMENTS.md for the paper-vs-measured
   comparison. *)

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
module Estimate = Cals_estimate.Estimate
module Sta = Cals_sta.Sta
module Mapper = Cals_core.Mapper
module Partition = Cals_core.Partition
module Incremental = Cals_core.Incremental
module Flow = Cals_core.Flow
module Reference_flow = Cals_reference.Reference_flow
module Check = Cals_verify.Check
module Presets = Cals_workload.Presets
module Probe = Cals_telemetry.Probe
module Ring = Cals_telemetry.Ring
module Metrics = Cals_telemetry.Metrics
module Export = Cals_telemetry.Export
module Fuzz = Cals_verify.Fuzz
module Proto = Cals_serve.Proto
module Scheduler = Cals_serve.Scheduler

let library = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry library
let wire = Cals_cell.Library.wire library
let router_config = { Router.default_config with reroute_iterations = 16 }

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
  (* ~5 um2 of mapped cell area per base gate under min-area covering. *)
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:target_utilization ~aspect:1.0 ~geometry
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

let run_point ?(strategy = Partition.Pdp) circuit k =
  let options = { (Mapper.congestion_aware ~k) with strategy } in
  let result =
    Mapper.map circuit.subject ~library ~positions:circuit.positions options
  in
  let mapped = result.Mapper.mapped in
  match Placement.place_mapped_seeded mapped ~floorplan:circuit.floorplan with
  | exception Cals_place.Legalize.Overflow _ ->
    { k; mapped; placement = None; routing = None }
  | placement ->
    let routing =
      Router.route_mapped ~config:router_config mapped
        ~floorplan:circuit.floorplan ~wire ~placement
    in
    { k; mapped; placement = Some placement; routing = Some routing }

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
  let rows =
    List.map
      (fun k ->
        let p = run_point circuit k in
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
  let p = run_point circuit k in
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
  let named =
    [
      ("0.0", circuit, 0.0);
      (Printf.sprintf "%g" k_star, circuit, k_star);
      ("SIS", sis, 0.0);
    ]
  in
  (* Reference path: endpoints of the K = 0 critical path. *)
  let reference = sta_point circuit 0.0 in
  let ref_pi, ref_po =
    match reference with
    | Some (_, _, _, r) -> (r.Sta.critical.Sta.through_pi, r.Sta.critical.Sta.po)
    | None -> ("-", "-")
  in
  let rows =
    List.filter_map
      (fun (label, c, k) ->
        match sta_point c k with
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
        let p = run_point ~strategy:Partition.Dagon circuit 0.0 in
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
  let show label k =
    let r =
      Mapper.map subject ~library ~positions (Mapper.congestion_aware ~k)
    in
    let mapped = r.Mapper.mapped in
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
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.5 ~aspect:1.0 ~geometry
  in
  let outcome, _ =
    Flow.run_adaptive ~router_config ~subject ~library ~floorplan
      ~rng:(Rng.create 22) ()
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
    let r = Mapper.map circuit.subject ~library ~positions:circuit.positions options in
    let mapped = r.Mapper.mapped in
    match Placement.place_mapped_seeded mapped ~floorplan:circuit.floorplan with
    | exception Cals_place.Legalize.Overflow _ ->
      [ label; Tables.fmt_int (int_of_float (Mapped.total_area mapped));
        string_of_int (Mapped.num_cells mapped); "-"; "DNF" ]
    | placement ->
      let routing =
        Router.route_mapped ~config:router_config mapped
          ~floorplan:circuit.floorplan ~wire ~placement
      in
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
      evaluate "Euclidean distance" { base with Mapper.distance = Geom.euclidean };
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
(* Perf: per-stage wall-clock, K-search sweeps, JSON dump              *)
(* ------------------------------------------------------------------ *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* What a pruned or adaptive search must reproduce of the unpruned walk's
   accepted point: its K and every metric recorded for it. *)
let iteration_sig (it : Flow.iteration) =
  (it.Flow.k, it.Flow.cells, it.Flow.cell_area, it.Flow.hpwl_um, it.Flow.report)

let perf_report ~scale ~json =
  Ring.clear ();
  Metrics.reset ();
  let circuit = spla ~scale in
  Printf.printf "Perf: %s, %d base gates (host reports %d cores)\n"
    circuit.name
    (Subject.num_gates circuit.subject)
    (Domain.recommended_domain_count ());
  (* Per-stage wall-clock at a representative K point. *)
  let k = 0.001 in
  let options =
    { (Mapper.congestion_aware ~k) with strategy = Partition.Pdp }
  in
  let map_result, map_s =
    wall (fun () ->
        Mapper.map circuit.subject ~library ~positions:circuit.positions options)
  in
  let mapped = map_result.Mapper.mapped in
  let matches = map_result.Mapper.stats.Mapper.matches_evaluated in
  let matches_per_sec = float_of_int matches /. max 1e-9 map_s in
  let placement, place_s =
    wall (fun () ->
        Placement.place_mapped_seeded mapped ~floorplan:circuit.floorplan)
  in
  let alloc0 = Gc.allocated_bytes () in
  let gc0 = Gc.quick_stat () in
  let routing, route_s =
    wall (fun () ->
        Router.route_mapped ~config:router_config mapped
          ~floorplan:circuit.floorplan ~wire ~placement)
  in
  let gc1 = Gc.quick_stat () in
  let route_alloc_mb = (Gc.allocated_bytes () -. alloc0) /. 1048576.0 in
  let route_minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words in
  let route_major_words = gc1.Gc.major_words -. gc0.Gc.major_words in
  Printf.printf
    "  stages @ K=%g: map %.3fs (%s matches, %s matches/sec), place %.3fs,\n\
    \    route %.3fs (%d violations, %.1f MB allocated, %.2e minor + %.2e \
     major words)\n"
    k map_s (Tables.fmt_int matches)
    (Tables.fmt_int (int_of_float matches_per_sec))
    place_s route_s routing.Router.violations route_alloc_mb route_minor_words
    route_major_words;
  (* Spans from here on: the probe window covers only the sweeps, so the
     flow.k_eval / route.route_pins totals below measure the K-schedule
     loop, not the stage timing above. *)
  Probe.enable ();
  (* The unpruned linear walk of the full K schedule: the baseline the
     pruned walk and the adaptive search below are measured against. The
     estimator is pinned Off so every point pays its route and
     flow.route_share keeps its schema-4 meaning. *)
  let subject = circuit.subject and floorplan = circuit.floorplan in
  let seq, seq_s =
    wall (fun () ->
        Reference_flow.run ~router_config ~estimate:Estimate.Off ~subject
          ~library ~floorplan ~rng:(Rng.create 22) ())
  in
  let accepted_k =
    match seq.Flow.accepted with
    | Some it -> Printf.sprintf "%g" it.Flow.k
    | None -> "null"
  in
  Printf.printf "  unpruned linear walk: %.3fs (%d iterations)\n" seq_s
    (List.length seq.Flow.iterations);
  (* Router share of the sweep, from the span totals accumulated by the
     walk above (snapshot now, before the sweeps below add
     route.route_pins time outside any flow.k_eval). *)
  let route_share =
    let spans = Export.span_stats () in
    let total name =
      match List.find_opt (fun s -> s.Export.s_name = name) spans with
      | Some s -> s.Export.s_total_us
      | None -> 0.0
    in
    let k_eval = total "flow.k_eval" in
    if k_eval > 0.0 then total "route.route_pins" /. k_eval else 0.0
  in
  Printf.printf "  route share of the K sweep: %.1f%% of flow.k_eval\n"
    (100.0 *. route_share);
  (* Pruned walk: the same linear walk with the estimator on. Confident
     Unroutable forecasts skip their negotiated route; the accepted K and
     its QoR must be bit-identical to the unpruned [seq] run, and every
     skipped point is scored against the unpruned run's real route at the
     same K (accuracy = fraction the estimator called correctly). *)
  let pruned, pruned_s =
    wall (fun () ->
        Reference_flow.run ~router_config ~subject ~library ~floorplan
          ~rng:(Rng.create 22) ())
  in
  let skipped =
    List.filter (fun it -> it.Flow.estimated) pruned.Flow.iterations
  in
  let routes_skipped = List.length skipped in
  let estimate_accuracy =
    if routes_skipped = 0 then 1.0
    else
      let correct =
        List.length
          (List.filter
             (fun (it : Flow.iteration) ->
               match
                 List.find_opt
                   (fun (s : Flow.iteration) -> s.Flow.k = it.Flow.k)
                   seq.Flow.iterations
               with
               | Some s -> s.Flow.report.Congestion.violations > 0
               | None -> false)
             skipped)
      in
      float_of_int correct /. float_of_int routes_skipped
  in
  let pruned_speedup = seq_s /. max 1e-9 pruned_s in
  let accepted_k_identical =
    Option.map iteration_sig seq.Flow.accepted
    = Option.map iteration_sig pruned.Flow.accepted
  in
  Printf.printf
    "  pruned sweep: %.3fs (%d of %d routes skipped, accuracy %.2f), \
     speedup %.2fx vs unpruned, accepted K identical=%b\n"
    pruned_s routes_skipped
    (List.length pruned.Flow.iterations)
    estimate_accuracy pruned_speedup accepted_k_identical;
  if not accepted_k_identical then
    print_endline "  WARNING: pruned sweep changed the accepted K point";
  (* Adaptive K search: bisect the ladder on forecast verdicts, then
     confirm with real routes from the frontier up. Must accept the
     bit-identical K point with a handful of routes instead of one per
     schedule point. *)
  let (adaptive, astats), adaptive_s =
    wall (fun () ->
        Flow.run_adaptive ~router_config ~subject ~library ~floorplan
          ~rng:(Rng.create 22) ())
  in
  let adaptive_speedup = seq_s /. max 1e-9 adaptive_s in
  let adaptive_identical =
    Option.map iteration_sig seq.Flow.accepted
    = Option.map iteration_sig adaptive.Flow.accepted
  in
  Printf.printf
    "  adaptive search: %.3fs (%d real routes, %d forecast evals), speedup \
     %.2fx vs unpruned, accepted K identical=%b\n"
    adaptive_s astats.Flow.real_routes astats.Flow.forecast_evals
    adaptive_speedup adaptive_identical;
  if not adaptive_identical then
    print_endline "  WARNING: adaptive search changed the accepted K point";
  (* Timing-driven covering: post-route critical path of the accepted-K
     netlist (K=0 when the sweep accepted nothing) with the fitted weight
     against the T=0 baseline — the Table 3/5 trend as a guarded number. *)
  let timing_k =
    match seq.Flow.accepted with Some it -> it.Flow.k | None -> 0.0
  in
  let timing_weight = Mapper.default_timing_weight in
  let crit_at ~t =
    let r =
      Mapper.map subject ~library ~positions:circuit.positions
        { (Mapper.congestion_aware ~k:timing_k) with Mapper.t }
    in
    let mapped = r.Mapper.mapped in
    match Placement.place_mapped_seeded mapped ~floorplan with
    | exception Cals_place.Legalize.Overflow _ -> None
    | placement ->
      let routing =
        Router.route_mapped ~config:router_config mapped ~floorplan ~wire
          ~placement
      in
      let report =
        Sta.analyze ~net_length_um:routing.Router.net_length_um mapped ~wire
          ~placement
      in
      Some report.Sta.critical.Sta.arrival_ns
  in
  let baseline_ns = crit_at ~t:0.0 in
  let timing_ns = crit_at ~t:timing_weight in
  (match (baseline_ns, timing_ns) with
  | Some b, Some t ->
    Printf.printf
      "  timing-driven covering @ K=%g: T=0 %.3f ns -> T=%g %.3f ns (%s)\n"
      timing_k b timing_weight t
      (if t <= b then "no worse" else "WORSE")
  | _ -> print_endline "  timing-driven covering: netlist did not legalize");
  (* Cold vs incremental mapping sweep: the match cache's win — one match
     phase, then only the cost-combination DP per K point. Placement and
     routing are untouched by the engine, so the pair times the mapping
     phase alone (the flow:k-sweep-* Bechamel pair measures the same);
     identity is still checked instance for instance. *)
  let cold_sweep, cold_s =
    wall (fun () ->
        List.map
          (fun k ->
            Mapper.map subject ~library ~positions:circuit.positions
              (Mapper.congestion_aware ~k))
          k_schedule)
  in
  let session =
    Incremental.create ~subject ~library ~positions:circuit.positions ()
  in
  let inc_sweep, inc_s =
    wall (fun () -> List.map (fun k -> Incremental.map session ~k) k_schedule)
  in
  let sweep_speedup = cold_s /. max 1e-9 inc_s in
  let sweep_identical =
    List.for_all2
      (fun (a : Mapper.result) (b : Mapper.result) ->
        a.Mapper.stats = b.Mapper.stats
        && a.Mapper.mapped.Mapped.instances = b.Mapper.mapped.Mapped.instances)
      cold_sweep inc_sweep
  in
  let cache_hit_rate = Incremental.hit_rate (Incremental.stats session) in
  Printf.printf
    "  mapping sweep (%d K points): cold %.3fs, incremental %.3fs, speedup \
     %.2fx, cache hit rate %.3f, identical=%b\n"
    (List.length k_schedule)
    cold_s inc_s sweep_speedup cache_hit_rate sweep_identical;
  if not sweep_identical then
    print_endline "  WARNING: incremental sweep diverged from the cold sweep";
  (* Cold vs session-warm routing sweep: the router session's win. Each
     K point's mapped netlist is placed once; both sides then route every
     placement twice, so with a session the second pass is pure replay. *)
  let fixtures =
    List.filter_map
      (fun (r : Mapper.result) ->
        let mapped = r.Mapper.mapped in
        match
          Placement.place_mapped_seeded mapped ~floorplan:circuit.floorplan
        with
        | exception Cals_place.Legalize.Overflow _ -> None
        | placement -> Some (mapped, placement))
      cold_sweep
  in
  let route_all session =
    List.map
      (fun (mapped, placement) ->
        Router.route_mapped ~config:router_config ?session mapped
          ~floorplan:circuit.floorplan ~wire ~placement)
      fixtures
  in
  let route_cold, route_cold_s =
    wall (fun () ->
        let _ = route_all None in
        route_all None)
  in
  let rsession = Router.Session.create () in
  let route_warm, route_warm_s =
    wall (fun () ->
        let _ = route_all (Some rsession) in
        route_all (Some rsession))
  in
  let route_speedup = route_cold_s /. max 1e-9 route_warm_s in
  let route_identical =
    List.for_all2
      (fun (a : Router.result) (b : Router.result) ->
        a.Router.violations = b.Router.violations
        && a.Router.total_overflow = b.Router.total_overflow
        && a.Router.wirelength_um = b.Router.wirelength_um
        && a.Router.net_length_um = b.Router.net_length_um)
      route_cold route_warm
  in
  let rstats = Router.Session.stats rsession in
  let warm_hit_rate = Router.Session.warm_hit_rate rstats in
  Printf.printf
    "  routing sweep (%d placements x 2 passes): cold %.3fs, session %.3fs, \
     speedup %.2fx,\n\
    \    warm hit rate %.3f, nets reused %d / rerouted %d, arena %d bytes, \
     identical=%b\n"
    (List.length fixtures)
    route_cold_s route_warm_s route_speedup warm_hit_rate
    rstats.Router.Session.nets_reused rstats.Router.Session.nets_rerouted
    rstats.Router.Session.arena_bytes route_identical;
  if not route_identical then
    print_endline "  WARNING: session-warm routing diverged from cold routing";
  (* Fleet persistence: a batch of repeated-design jobs drained through
     the scheduler with a persistent match-cache store, then "restarted"
     — a fresh scheduler over the same --cache-dir — to measure how warm
     the service comes back up. *)
  let fleet_root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cals-bench-fleet-%d" (Unix.getpid ()))
  in
  let fleet_cache = Filename.concat fleet_root "mcs" in
  let fleet_jobs = 8 and fleet_designs = 2 in
  let fleet_drain out =
    let config =
      {
        Scheduler.default_config with
        Scheduler.jobs = 2;
        out_dir = out;
        cache_dir = Some fleet_cache;
      }
    in
    let scheduler = Scheduler.create config in
    for i = 0 to fleet_jobs - 1 do
      Scheduler.submit scheduler
        {
          Proto.id = Printf.sprintf "fleet-%d" i;
          input =
            Proto.Workload
              {
                Fuzz.seed = 3 + (i mod fleet_designs);
                family = Fuzz.Pla;
                inputs = 6;
                outputs = 3;
                size = 12;
              };
          k_schedule = Some [ 0.0; 0.001 ];
          checks = Check.Off;
          utilization = 0.55;
          optimize = false;
          timing = None;
          orchestrate = None;
          deadline_s = None;
        }
    done;
    Scheduler.drain scheduler ()
  in
  let store_counter name =
    let s = Metrics.snapshot () in
    match
      List.find_opt (fun c -> c.Metrics.c_name = name) s.Metrics.counters
    with
    | Some c -> c.Metrics.c_value
    | None -> 0
  in
  let fleet_cold_out = Filename.concat fleet_root "cold" in
  let fleet_warm_out = Filename.concat fleet_root "warm" in
  let fleet_cold, fleet_cold_s = wall (fun () -> fleet_drain fleet_cold_out) in
  let store_hit0 = store_counter "serve_cache_store_hit" in
  let fleet_warm, fleet_warm_s = wall (fun () -> fleet_drain fleet_warm_out) in
  let restart_store_hits = store_counter "serve_cache_store_hit" - store_hit0 in
  let restart_warm_hit_rate =
    float_of_int restart_store_hits /. float_of_int fleet_designs
  in
  let fleet_throughput = float_of_int fleet_jobs /. max 1e-9 fleet_warm_s in
  let slurp path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let fleet_identical =
    fleet_cold.Scheduler.completed = fleet_jobs
    && fleet_warm.Scheduler.completed = fleet_jobs
    && List.for_all
         (fun i ->
           let v = Printf.sprintf "fleet-%d/mapped.v" i in
           slurp (Filename.concat fleet_cold_out v)
           = slurp (Filename.concat fleet_warm_out v))
         (List.init fleet_jobs (fun i -> i))
  in
  Printf.printf
    "  serve fleet (%d jobs, %d designs): cold drain %.3fs, restarted \
     %.3fs (%.1f jobs/s),\n\
    \    restart warm hit rate %.2f, identical=%b\n"
    fleet_jobs fleet_designs fleet_cold_s fleet_warm_s fleet_throughput
    restart_warm_hit_rate fleet_identical;
  if not fleet_identical then
    print_endline "  WARNING: restarted fleet drain diverged from cold drain";
  (* Synthesis orchestration over the golden corpus: AIG strash node
     reduction (the tech-independent claim) and best-vs-baseline accepted
     K / subject gates / cell area / post-route critical path through
     [Flow.orchestrate]. Falls back to the bench circuit's own network
     when the corpus is not on disk (e.g. an installed binary). *)
  let module Aig = Cals_logic.Aig in
  let golden_dir = Filename.concat "test" "golden" in
  let synth_designs =
    if Sys.file_exists golden_dir && Sys.is_directory golden_dir then
      Sys.readdir golden_dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".blif")
      |> List.sort compare
      |> List.map (fun f ->
             (Filename.chop_suffix f ".blif",
              lazy (Cals_logic.Blif.read_file (Filename.concat golden_dir f))))
    else
      [ (circuit.name, lazy (Presets.spla_like ~scale ~seed:1 ())) ]
  in
  let synth_floorplan_of subject =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.55 ~aspect:1.0 ~geometry
  in
  let crit_of (outcome : Flow.outcome) =
    match (outcome.Flow.mapped, outcome.Flow.placement, outcome.Flow.routing)
    with
    | Some mapped, Some placement, Some routing ->
      let report =
        Sta.analyze ~net_length_um:routing.Router.net_length_um mapped ~wire
          ~placement
      in
      Some report.Sta.critical.Sta.arrival_ns
    | _ -> None
  in
  let synth_rows, synth_s =
    wall (fun () ->
        List.map
          (fun (name, net) ->
            let net = Lazy.force net in
            let raw = Aig.of_network ~strash:false net in
            let nodes_raw = Aig.num_nodes raw in
            let nodes_strash = Aig.num_ands (Aig.apply Aig.Strash raw) in
            let result =
              Flow.orchestrate ~optimize:false ~network:net ~library
                ~floorplan_of:synth_floorplan_of ~seed:1 ()
            in
            let accepted ev =
              match ev.Flow.result with
              | Some ({ Flow.accepted = Some it; _ }, _) ->
                (Some it.Flow.k, Some it.Flow.cell_area)
              | _ -> (None, None)
            in
            let base_k, base_area = accepted result.Flow.baseline in
            let best_k, best_area = accepted result.Flow.best in
            let base_crit, best_crit =
              match (result.Flow.baseline.Flow.result, result.Flow.best.Flow.result)
              with
              | Some (bo, _), Some (so, _) -> (crit_of bo, crit_of so)
              | _ -> (None, None)
            in
            (name, nodes_raw, nodes_strash,
             result.Flow.baseline.Flow.gates, result.Flow.best.Flow.gates,
             List.length result.Flow.evaluations, result.Flow.best_index,
             base_k, best_k, base_area, best_area, base_crit, best_crit))
          synth_designs)
  in
  let sumi f = List.fold_left (fun a r -> a + f r) 0 synth_rows in
  let sumf f =
    List.fold_left
      (fun a r -> a +. Option.value ~default:0.0 (f r))
      0.0 synth_rows
  in
  let synth_nodes_raw = sumi (fun (_, r, _, _, _, _, _, _, _, _, _, _, _) -> r) in
  let synth_nodes_strash =
    sumi (fun (_, _, s, _, _, _, _, _, _, _, _, _, _) -> s)
  in
  let synth_base_gates =
    sumi (fun (_, _, _, g, _, _, _, _, _, _, _, _, _) -> g)
  in
  let synth_best_gates =
    sumi (fun (_, _, _, _, g, _, _, _, _, _, _, _, _) -> g)
  in
  let synth_candidates =
    sumi (fun (_, _, _, _, _, c, _, _, _, _, _, _, _) -> c)
  in
  let synth_k_never_worse =
    List.for_all
      (fun (_, _, _, _, _, _, _, base_k, best_k, _, _, _, _) ->
        match (base_k, best_k) with
        | Some b, Some s -> s <= b
        | None, _ -> true
        | Some _, None -> false)
      synth_rows
  in
  let synth_base_area =
    sumf (fun (_, _, _, _, _, _, _, _, _, a, _, _, _) -> a)
  in
  let synth_best_area =
    sumf (fun (_, _, _, _, _, _, _, _, _, _, a, _, _) -> a)
  in
  let synth_base_crit =
    sumf (fun (_, _, _, _, _, _, _, _, _, _, _, c, _) -> c)
  in
  let synth_best_crit =
    sumf (fun (_, _, _, _, _, _, _, _, _, _, _, _, c) -> c)
  in
  Printf.printf
    "  synth orchestration (%d designs, %.3fs): strash %d -> %d AIG nodes \
     (-%.1f%%),\n\
    \    subject %d -> %d gates, %d candidates, accepted-K never worse=%b\n"
    (List.length synth_rows) synth_s synth_nodes_raw synth_nodes_strash
    (100.0
    *. float_of_int (synth_nodes_raw - synth_nodes_strash)
    /. float_of_int (max 1 synth_nodes_raw))
    synth_base_gates synth_best_gates synth_candidates synth_k_never_worse;
  List.iter
    (fun (name, _, _, bg, sg, _, best_idx, _, _, _, _, _, _) ->
      Printf.printf "    %-18s %4d -> %4d gates (candidate %d)\n" name bg sg
        best_idx)
    synth_rows;
  if not synth_k_never_worse then
    print_endline "  WARNING: orchestration made the accepted K worse";
  let spans = Export.span_stats () in
  (match json with
  | None -> ()
  | Some path ->
    let spans_json =
      spans
      |> List.map (fun s ->
             Printf.sprintf
               "    { \"name\": \"%s\", \"cat\": \"%s\", \"count\": %d, \
                \"total_s\": %.6f, \"mean_s\": %.6f, \"max_s\": %.6f }"
               s.Export.s_name s.Export.s_cat s.Export.s_count
               (s.Export.s_total_us /. 1e6)
               (s.Export.s_mean_us /. 1e6)
               (s.Export.s_max_us /. 1e6))
      |> String.concat ",\n"
    in
    let oc = open_out path in
    Printf.fprintf oc
      "{\n\
      \  \"schema\": 9,\n\
      \  \"circuit\": \"%s\",\n\
      \  \"scale\": %g,\n\
      \  \"gates\": %d,\n\
      \  \"host_cores\": %d,\n\
      \  \"stages\": {\n\
      \    \"map_s\": %.6f,\n\
      \    \"place_s\": %.6f,\n\
      \    \"route_s\": %.6f,\n\
      \    \"matches_evaluated\": %d,\n\
      \    \"matches_per_sec\": %.0f,\n\
      \    \"route_alloc_mb\": %.3f,\n\
      \    \"route_minor_words\": %.0f,\n\
      \    \"route_major_words\": %.0f,\n\
      \    \"route_violations\": %d\n\
      \  },\n\
      \  \"flow\": {\n\
      \    \"iterations\": %d,\n\
      \    \"accepted_k\": %s,\n\
      \    \"sequential_s\": %.6f,\n\
      \    \"route_share\": %.4f\n\
      \  },\n\
      \  \"sweep\": {\n\
      \    \"k_points\": %d,\n\
      \    \"cold_s\": %.6f,\n\
      \    \"incremental_s\": %.6f,\n\
      \    \"speedup\": %.3f,\n\
      \    \"cache_hit_rate\": %.4f,\n\
      \    \"identical\": %b,\n\
      \    \"pruned\": {\n\
      \      \"routes_skipped\": %d,\n\
      \      \"iterations\": %d,\n\
      \      \"estimate_accuracy\": %.4f,\n\
      \      \"pruned_s\": %.6f,\n\
      \      \"speedup\": %.3f,\n\
      \      \"accepted_k_identical\": %b\n\
      \    },\n\
      \    \"adaptive\": {\n\
      \      \"real_routes\": %d,\n\
      \      \"forecast_evals\": %d,\n\
      \      \"frontier_k\": %s,\n\
      \      \"adaptive_s\": %.6f,\n\
      \      \"speedup\": %.3f,\n\
      \      \"accepted_k_identical\": %b\n\
      \    }\n\
      \  },\n\
      \  \"timing\": {\n\
      \    \"t\": %g,\n\
      \    \"k\": %g,\n\
      \    \"baseline_ns\": %s,\n\
      \    \"timing_ns\": %s,\n\
      \    \"critical_path_ps\": %s,\n\
      \    \"improved\": %b\n\
      \  },\n\
      \  \"route\": {\n\
      \    \"placements\": %d,\n\
      \    \"passes\": 2,\n\
      \    \"cold_s\": %.6f,\n\
      \    \"incremental_s\": %.6f,\n\
      \    \"speedup\": %.3f,\n\
      \    \"warm_hit_rate\": %.4f,\n\
      \    \"nets_reused\": %d,\n\
      \    \"nets_rerouted\": %d,\n\
      \    \"arena_bytes\": %d,\n\
      \    \"identical\": %b\n\
      \  },\n\
      \  \"serve\": {\n\
      \    \"fleet\": {\n\
      \      \"jobs\": %d,\n\
      \      \"designs\": %d,\n\
      \      \"cold_drain_s\": %.6f,\n\
      \      \"restart_drain_s\": %.6f,\n\
      \      \"throughput_jobs_per_s\": %.3f,\n\
      \      \"restart_warm_hit_rate\": %.4f,\n\
      \      \"identical\": %b\n\
      \    }\n\
      \  },\n\
      \  \"synth\": {\n\
      \    \"designs\": %d,\n\
      \    \"candidates_explored\": %d,\n\
      \    \"aig_nodes_raw\": %d,\n\
      \    \"aig_nodes_strash\": %d,\n\
      \    \"strash_reduction_pct\": %.2f,\n\
      \    \"baseline_gates\": %d,\n\
      \    \"best_gates\": %d,\n\
      \    \"node_reduction\": %d,\n\
      \    \"accepted_k_never_worse\": %b,\n\
      \    \"baseline_area\": %.4f,\n\
      \    \"best_area\": %.4f,\n\
      \    \"baseline_crit_ns\": %.6f,\n\
      \    \"best_crit_ns\": %.6f,\n\
      \    \"orchestrate_s\": %.6f\n\
      \  },\n\
      \  \"spans\": [\n%s\n\
      \  ]\n\
       }\n"
      circuit.name scale
      (Subject.num_gates circuit.subject)
      (Domain.recommended_domain_count ())
      map_s place_s route_s matches matches_per_sec route_alloc_mb
      route_minor_words route_major_words routing.Router.violations
      (List.length seq.Flow.iterations)
      accepted_k seq_s route_share
      (List.length k_schedule)
      cold_s inc_s sweep_speedup cache_hit_rate sweep_identical routes_skipped
      (List.length pruned.Flow.iterations)
      estimate_accuracy pruned_s pruned_speedup accepted_k_identical
      astats.Flow.real_routes astats.Flow.forecast_evals
      (match astats.Flow.frontier_k with
      | Some k -> Printf.sprintf "%g" k
      | None -> "null")
      adaptive_s adaptive_speedup adaptive_identical timing_weight timing_k
      (match baseline_ns with
      | Some ns -> Printf.sprintf "%.6f" ns
      | None -> "null")
      (match timing_ns with
      | Some ns -> Printf.sprintf "%.6f" ns
      | None -> "null")
      (match timing_ns with
      | Some ns -> Printf.sprintf "%.3f" (1000.0 *. ns)
      | None -> "null")
      (match (baseline_ns, timing_ns) with
      | Some b, Some t -> t <= b
      | _ -> false)
      (List.length fixtures)
      route_cold_s route_warm_s route_speedup warm_hit_rate
      rstats.Router.Session.nets_reused rstats.Router.Session.nets_rerouted
      rstats.Router.Session.arena_bytes route_identical fleet_jobs
      fleet_designs fleet_cold_s fleet_warm_s fleet_throughput
      restart_warm_hit_rate fleet_identical
      (List.length synth_rows)
      synth_candidates synth_nodes_raw synth_nodes_strash
      (100.0
      *. float_of_int (synth_nodes_raw - synth_nodes_strash)
      /. float_of_int (max 1 synth_nodes_raw))
      synth_base_gates synth_best_gates
      (synth_base_gates - synth_best_gates)
      synth_k_never_worse synth_base_area synth_best_area synth_base_crit
      synth_best_crit synth_s spans_json;
    close_out oc;
    Printf.printf "  wrote %s\n" path);
  print_string (Export.summary ());
  Probe.disable ();
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table                  *)
(* ------------------------------------------------------------------ *)

let micro_benchmarks () =
  let open Bechamel in
  let tiny_scale = 0.02 in
  let circuit = lazy (spla ~scale:tiny_scale) in
  let sis_net = lazy (Presets.too_large_like ~scale:tiny_scale ~seed:5 ()) in
  let table1_work () =
    (* SIS-style optimization, the distinctive cost of Table 1. *)
    let net = Cals_logic.Blif.parse (Cals_logic.Blif.print (Lazy.force sis_net)) in
    Network.sweep net;
    ignore (Optimize.extract_common_cubes ~max_rounds:4 net)
  in
  let table2_work () =
    let c = Lazy.force circuit in
    ignore (run_point c 0.001)
  in
  let table3_work () =
    let c = Lazy.force circuit in
    match sta_point c 0.0 with Some _ | None -> ()
  in
  let table4_work () =
    let c = Lazy.force circuit in
    ignore (Mapper.map c.subject ~library ~positions:c.positions Mapper.min_area)
  in
  let table5_work () =
    let c = Lazy.force circuit in
    let p = run_point c 0.0 in
    match p.placement with
    | Some placement -> ignore (Sta.analyze p.mapped ~wire ~placement)
    | None -> ()
  in
  (* Telemetry overhead check: the same maze-route workload with probes
     disabled (the shipped default) and enabled. The disabled variant must
     stay within noise of the pre-telemetry router. *)
  let route_fixture =
    lazy
      (let c = Lazy.force circuit in
       let r =
         Mapper.map c.subject ~library ~positions:c.positions
           (Mapper.congestion_aware ~k:0.001)
       in
       let mapped = r.Mapper.mapped in
       let placement = Placement.place_mapped_seeded mapped ~floorplan:c.floorplan in
       (c, mapped, placement))
  in
  let maze_work enabled () =
    let c, mapped, placement = Lazy.force route_fixture in
    if enabled then Probe.enable () else Probe.disable ();
    ignore
      (Router.route_mapped ~config:router_config mapped
         ~floorplan:c.floorplan ~wire ~placement);
    Probe.disable ()
  in
  (* Router session pairs. negotiate-cold / session-warm: full cold
     negotiation vs pure replay from a pre-warmed session. maze-arena /
     maze-alloc: the same full negotiation with pooled session arenas
     (invalidated before every call, so nothing replays) vs fresh
     per-call allocation — the pair isolates the allocation diet. *)
  let route_once ?session () =
    let c, mapped, placement = Lazy.force route_fixture in
    ignore
      (Router.route_mapped ~config:router_config ?session mapped
         ~floorplan:c.floorplan ~wire ~placement)
  in
  let warm_session =
    lazy
      (let s = Router.Session.create () in
       route_once ~session:s ();
       s)
  in
  let session_warm () = route_once ~session:(Lazy.force warm_session) () in
  let arena_session = lazy (Router.Session.create ()) in
  let maze_arena () =
    let s = Lazy.force arena_session in
    Router.Session.invalidate s;
    route_once ~session:s ()
  in
  let negotiate_cold () = route_once () in
  (* The incremental engine's headline number: mapping the whole K ladder
     cold (fresh partition + matching at every K) vs through one session
     (match once, re-run only the cost-combination DP per K). *)
  let sweep_cold () =
    let c = Lazy.force circuit in
    List.iter
      (fun k ->
        ignore
          (Mapper.map c.subject ~library ~positions:c.positions
             (Mapper.congestion_aware ~k)))
      k_schedule
  in
  let sweep_incremental () =
    let c = Lazy.force circuit in
    let session =
      Incremental.create ~subject:c.subject ~library ~positions:c.positions ()
    in
    List.iter (fun k -> ignore (Incremental.map session ~k)) k_schedule
  in
  (* Verification overhead: one full K point with the checkers off (the
     shipped default) vs Full (invariants + equivalence + usage audit). *)
  let checks_work level () =
    let c = Lazy.force circuit in
    ignore
      (Flow.evaluate_k ~router_config ~checks:level ~subject:c.subject
         ~library ~floorplan:c.floorplan ~positions:c.positions ~k:0.001 ())
  in
  (* Service throughput: drain a batch of small repeated-design jobs
     through the scheduler — queue + design cache + artifact overhead on
     top of the raw K evaluations. *)
  let serve_out =
    Filename.concat (Filename.get_temp_dir_name ()) "cals-bench-serve"
  in
  let serve_work () =
    let config =
      {
        Scheduler.default_config with
        Scheduler.jobs = 2;
        out_dir = serve_out;
        backoff_s = 0.001;
      }
    in
    let scheduler = Scheduler.create config in
    for i = 0 to 7 do
      Scheduler.submit scheduler
        {
          Proto.id = Printf.sprintf "bench-%d" i;
          input =
            Proto.Workload
              {
                Fuzz.seed = 3 + (i mod 2);
                family = Fuzz.Pla;
                inputs = 6;
                outputs = 3;
                size = 12;
              };
          k_schedule = Some [ 0.0; 0.001 ];
          checks = Check.Off;
          utilization = 0.55;
          optimize = false;
          timing = None;
          orchestrate = None;
          deadline_s = None;
        }
    done;
    ignore (Scheduler.drain scheduler ())
  in
  let tests =
    [
      Test.make ~name:"table1:sis-optimize" (Staged.stage table1_work);
      Test.make ~name:"table2:spla-k-point" (Staged.stage table2_work);
      Test.make ~name:"table3:spla-sta" (Staged.stage table3_work);
      Test.make ~name:"table4:pdc-min-area-map" (Staged.stage table4_work);
      Test.make ~name:"table5:pdc-sta" (Staged.stage table5_work);
      Test.make ~name:"route:maze-telemetry-off" (Staged.stage (maze_work false));
      Test.make ~name:"route:maze-telemetry-on" (Staged.stage (maze_work true));
      Test.make ~name:"route:negotiate-cold" (Staged.stage negotiate_cold);
      Test.make ~name:"route:session-warm" (Staged.stage session_warm);
      Test.make ~name:"route:maze-arena" (Staged.stage maze_arena);
      Test.make ~name:"route:maze-alloc" (Staged.stage negotiate_cold);
      Test.make ~name:"flow:k-point-checks-off" (Staged.stage (checks_work Check.Off));
      Test.make ~name:"flow:k-point-checks-full" (Staged.stage (checks_work Check.Full));
      Test.make ~name:"flow:k-sweep-cold" (Staged.stage sweep_cold);
      Test.make ~name:"flow:k-sweep-incremental" (Staged.stage sweep_incremental);
      Test.make ~name:"serve:drain-throughput" (Staged.stage serve_work);
    ]
  in
  let cfg = Benchmark.cfg ~quota:(Time.second 0.5) ~limit:200 () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  print_endline "Bechamel micro-benchmarks (wall time per iteration):";
  let results =
    Benchmark.all cfg instances (Test.make_grouped ~name:"tables" tests)
  in
  let res = Analyze.all ols Toolkit.Instance.monotonic_clock results in
  let estimates =
    Hashtbl.fold (fun name result acc -> (name, result) :: acc) res []
    |> List.sort compare
    |> List.map (fun (name, result) ->
           match Analyze.OLS.estimates result with
           | Some (est :: _) -> (name, Some est)
           | Some [] | None -> (name, None))
  in
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "  %-32s %10.3f ms/run\n" name (est /. 1e6)
      | None -> Printf.printf "  %-32s (no estimate)\n" name)
    estimates;
  (* Overhead of the disabled probes relative to enabled ones is not the
     interesting number; what matters is that "off" stays at the router's
     raw speed. Report the on/off ratio so regressions are visible. *)
  let find suffix =
    List.find_map
      (fun (name, est) ->
        if String.ends_with ~suffix name then est else None)
      estimates
  in
  (match (find "route:maze-telemetry-off", find "route:maze-telemetry-on") with
  | Some off, Some on when off > 0.0 ->
    Printf.printf "  telemetry-enabled maze route: %+.2f%% vs disabled\n"
      (100.0 *. ((on /. off) -. 1.0))
  | _ -> ());
  (match (find "flow:k-sweep-cold", find "flow:k-sweep-incremental") with
  | Some cold, Some inc when inc > 0.0 ->
    Printf.printf "  incremental K sweep: %.2fx faster than cold re-mapping\n"
      (cold /. inc)
  | _ -> ());
  (match (find "route:negotiate-cold", find "route:session-warm") with
  | Some cold, Some warm when warm > 0.0 ->
    Printf.printf "  session replay: %.2fx faster than cold negotiation\n"
      (cold /. warm)
  | _ -> ());
  (match (find "route:maze-alloc", find "route:maze-arena") with
  | Some alloc, Some arena when alloc > 0.0 ->
    Printf.printf "  arena-pooled negotiation: %+.2f%% vs fresh allocation\n"
      (100.0 *. ((arena /. alloc) -. 1.0))
  | _ -> ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let run_all ~scale ~tables ~figures ~with_ablations ~with_micro ~with_perf
    ~json =
  let selective = tables <> [] || figures <> [] || with_perf in
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
  if with_ablations then ablations ~scale;
  if with_perf then perf_report ~scale ~json;
  if with_micro then micro_benchmarks ()

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

let micro_arg =
  let doc = "Also run the Bechamel micro-benchmarks." in
  Arg.(value & flag & info [ "micro" ] ~doc)

let no_micro_arg =
  let doc = "Skip the Bechamel micro-benchmarks (on by default)." in
  Arg.(value & flag & info [ "no-micro" ] ~doc)

let perf_arg =
  let doc =
    "Run the perf section: per-stage wall-clock (map, place, route), \
     matches/sec, and the unpruned, pruned and adaptive K searches."
  in
  Arg.(value & flag & info [ "perf" ] ~doc)

let json_arg =
  let doc =
    "Write the perf section's measurements to $(docv) as JSON (implies \
     $(b,--perf)); use BENCH_cals.json to track the perf trajectory."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

let main scale full tables figures ablation micro no_micro perf json =
  let scale = if full then 1.0 else scale in
  let with_perf = perf || json <> None in
  let selective = tables <> [] || figures <> [] || with_perf in
  let with_micro = micro || ((not selective) && not no_micro) in
  let with_ablations = ablation in
  run_all ~scale ~tables ~figures ~with_ablations ~with_micro ~with_perf
    ~json

let cmd =
  let doc = "Regenerate the paper's tables and figures" in
  Cmd.v
    (Cmd.info "cals-bench" ~doc)
    Term.(
      const main $ scale_arg $ full_arg $ table_arg $ figure_arg $ ablation_arg
      $ micro_arg $ no_micro_arg $ perf_arg $ json_arg)

let () = exit (Cmd.eval cmd)
