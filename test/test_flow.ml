(* Integration tests: the full Figure-3 methodology loop and cross-module
   pipelines on small circuits. *)

module Flow = Cals_core.Flow
module Reference_flow = Cals_reference.Reference_flow
module Mapper = Cals_core.Mapper
module Reference_mapper = Cals_reference.Reference_mapper
module Partition = Cals_core.Partition
module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Congestion = Cals_route.Congestion
module Router = Cals_route.Router
module Sta = Cals_sta.Sta
module Network = Cals_logic.Network
module Rng = Cals_util.Rng

let lib = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry lib
let wire = Cals_cell.Library.wire lib

let small_circuit seed =
  let rng = Rng.create seed in
  let net =
    Cals_workload.Gen.pla ~rng ~inputs:10 ~outputs:10 ~products:60 ~terms_lo:6
      ~terms_hi:16 ()
  in
  Cals_logic.Network.sweep net;
  net

let test_flow_loose_floorplan_accepts_first () =
  let net = small_circuit 1 in
  let subject = Cals_logic.Decompose.subject_of_network net in
  (* Generous die: K = 0 must already be acceptable. *)
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.3 ~aspect:1.0 ~geometry
  in
  let outcome =
    Reference_flow.run ~subject ~library:lib ~floorplan ~rng:(Rng.create 2) ()
  in
  match outcome.Flow.accepted with
  | None -> Alcotest.fail "loose floorplan should route"
  | Some it ->
    Alcotest.(check (float 1e-9)) "accepted at K=0" 0.0 it.Flow.k;
    Alcotest.(check int) "single iteration" 1 (List.length outcome.Flow.iterations);
    Alcotest.(check bool) "netlist returned" true (outcome.Flow.mapped <> None);
    Alcotest.(check bool) "routing returned" true (outcome.Flow.routing <> None)

let test_flow_iterates_on_tight_floorplan () =
  let net = small_circuit 2 in
  let subject = Cals_logic.Decompose.subject_of_network net in
  (* Impossibly tight: fewer sites than the min-area mapping needs, so
     every K fails to legalize and the loop walks the whole schedule. *)
  let floorplan = Floorplan.of_rows ~num_rows:4 ~sites_per_row:40 ~geometry in
  let schedule = [ 0.0; 0.001; 0.01 ] in
  let outcome =
    Reference_flow.run ~k_schedule:schedule ~subject ~library:lib ~floorplan
      ~rng:(Rng.create 3) ()
  in
  Alcotest.(check int) "all iterations executed" (List.length schedule)
    (List.length outcome.Flow.iterations);
  (* K values recorded in schedule order. *)
  Alcotest.(check (list (float 1e-12))) "k order" schedule
    (List.map (fun it -> it.Flow.k) outcome.Flow.iterations)

let test_flow_function_preserved_through_accepted () =
  let net = small_circuit 3 in
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.4 ~aspect:1.0 ~geometry
  in
  let outcome =
    Reference_flow.run ~subject ~library:lib ~floorplan ~rng:(Rng.create 4) ()
  in
  match outcome.Flow.mapped with
  | None -> Alcotest.fail "expected acceptance"
  | Some mapped ->
    let rng = Rng.create 5 in
    for _ = 1 to 8 do
      let stimulus = Subject.random_vectors rng subject in
      if Subject.simulate subject stimulus <> Mapped.simulate mapped stimulus then
        Alcotest.fail "flow result is not equivalent"
    done

let test_flow_metrics_consistent () =
  let net = small_circuit 4 in
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.45 ~aspect:1.0 ~geometry
  in
  let positions =
    Placement.place_subject subject ~floorplan ~rng:(Rng.create 6)
  in
  let it, (mapped, placement, routing) =
    Flow.evaluate_k ~subject ~library:lib ~floorplan ~positions ~k:0.0005 ()
  in
  Alcotest.(check int) "cells" (Mapped.num_cells mapped) it.Flow.cells;
  Alcotest.(check (float 1e-6)) "area" (Mapped.total_area mapped) it.Flow.cell_area;
  (match placement with
  | Some pl -> Alcotest.(check (float 1e-6)) "hpwl" pl.Placement.hpwl it.Flow.hpwl_um
  | None -> Alcotest.fail "placement expected");
  match routing with
  | Some rt ->
    Alcotest.(check int) "violations" rt.Router.violations
      it.Flow.report.Congestion.violations
  | None -> Alcotest.fail "routing expected"

let test_full_pipeline_sis_vs_baseline () =
  (* Table-1-shaped experiment in miniature: the aggressively optimized
     netlist has smaller decomposed cell area after min-area mapping. *)
  let net_baseline = small_circuit 5 in
  let net_sis = Cals_logic.Blif.parse (Cals_logic.Blif.print net_baseline) in
  Cals_logic.Optimize.script_area net_sis;
  let subj_b = Cals_logic.Decompose.subject_of_network net_baseline in
  let subj_s = Cals_logic.Decompose.subject_of_network net_sis in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subj_b) *. 5.0)
      ~utilization:0.5 ~aspect:1.0 ~geometry
  in
  let map subj =
    let positions = Placement.place_subject subj ~floorplan ~rng:(Rng.create 7) in
    let r = Reference_mapper.map subj ~library:lib ~positions Mapper.min_area in
    r.Mapper.stats.Mapper.cell_area
  in
  let area_b = map subj_b and area_s = map subj_s in
  Alcotest.(check bool)
    (Printf.sprintf "sis %.0f <= baseline %.0f" area_s area_b)
    true (area_s <= area_b);
  (* And both remain functionally equivalent to the original. *)
  let rng = Rng.create 8 in
  for _ = 1 to 8 do
    let stimulus = Network.random_vectors rng net_baseline in
    if Network.simulate net_baseline stimulus <> Network.simulate net_sis stimulus
    then Alcotest.fail "script_area broke the circuit"
  done

let test_pipeline_with_sta () =
  (* Map at two K values and run STA on routed lengths; both must produce
     finite, positive critical paths. *)
  let net = small_circuit 6 in
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.5 ~aspect:1.0 ~geometry
  in
  let positions = Placement.place_subject subject ~floorplan ~rng:(Rng.create 9) in
  List.iter
    (fun k ->
      let r = Reference_mapper.map subject ~library:lib ~positions (Mapper.congestion_aware ~k) in
      let mapped = r.Mapper.mapped in
      let placement = Placement.place_mapped_seeded mapped ~floorplan in
      let routing = Router.route_mapped mapped ~floorplan ~wire ~placement in
      let report =
        Sta.analyze ~net_length_um:routing.Router.net_length_um mapped ~wire
          ~placement
      in
      let t = report.Sta.critical.Sta.arrival_ns in
      if not (t > 0.0 && t < 1000.0) then Alcotest.failf "bad critical %.3f at K=%g" t k)
    [ 0.0; 0.001 ]

(* ------------------------- adaptive K search ------------------------- *)

(* The ladder a serve job may send: the default one shuffled, and half
   the time with one point duplicated. *)
let unordered_ladder rng =
  let ladder = Array.of_list Flow.default_k_schedule in
  Rng.shuffle rng ladder;
  let ladder = Array.to_list ladder in
  if Rng.bool rng then begin
    let dup = List.nth ladder (Rng.int rng (List.length ladder)) in
    let at = Rng.int rng (List.length ladder + 1) in
    List.filteri (fun i _ -> i < at) ladder
    @ (dup :: List.filteri (fun i _ -> i >= at) ladder)
  end
  else ladder

(* The adaptive search's contract, as a differential against the linear
   walk of the same ladder on random workloads: same accepted K and
   metrics, same mapped netlist (verilog digest), same routed paths, and
   exactly as many real routes as the pruned linear walk pays — never one
   more. Crowd 2 drives over-capacity floorplans where no K is routable.
   The ladder is the default one in order, or (shape > 0) shuffled and
   possibly with a duplicated point, as serve jobs may send it. *)
let prop_adaptive_matches_linear =
  QCheck.Test.make ~count:8
    ~name:"adaptive search == linear schedule on the full default ladder"
    QCheck.(
      quad (int_range 0 10_000) (int_range 0 2) (int_range 0 1)
        (int_range 0 3))
    (fun (seed, crowd, fam, shape) ->
      let family = if fam = 0 then `Pla else `Multilevel in
      let net =
        Cals_workload.Gen.of_fuzz ~family ~seed ~inputs:6 ~outputs:3 ~size:14
      in
      Cals_logic.Network.sweep net;
      let subject = Cals_logic.Decompose.subject_of_network net in
      let utilization = [| 0.45; 0.65; 0.85 |].(crowd) in
      let layers = if crowd = 2 then 2 else 3 in
      let router_config = { Router.default_config with Router.layers } in
      let floorplan =
        Floorplan.for_area
          ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
          ~utilization ~aspect:1.0 ~geometry
      in
      let k_schedule =
        if shape = 0 then Flow.default_k_schedule
        else unordered_ladder (Rng.create (seed + shape))
      in
      let linear =
        Reference_flow.run ~k_schedule ~router_config ~subject ~library:lib
          ~floorplan ~rng:(Rng.create (seed + 1)) ()
      in
      let adaptive, stats =
        Flow.run_adaptive ~k_schedule ~router_config ~subject ~library:lib
          ~floorplan ~rng:(Rng.create (seed + 1)) ()
      in
      (match (linear.Flow.accepted, adaptive.Flow.accepted) with
      | None, None -> ()
      | Some l, Some a ->
        if
          not
            (l.Flow.k = a.Flow.k
            && l.Flow.cells = a.Flow.cells
            && l.Flow.cell_area = a.Flow.cell_area
            && l.Flow.hpwl_um = a.Flow.hpwl_um
            && l.Flow.report = a.Flow.report)
        then
          QCheck.Test.fail_reportf
            "seed %d: accepted iteration differs (linear K=%g, adaptive K=%g)"
            seed l.Flow.k a.Flow.k;
        if a.Flow.estimated then
          QCheck.Test.fail_reportf
            "seed %d: adaptive accepted an estimated point" seed
      | l, a ->
        QCheck.Test.fail_reportf "seed %d: acceptance differs (%s vs %s)" seed
          (match l with Some _ -> "accepted" | None -> "rejected")
          (match a with Some _ -> "accepted" | None -> "rejected"));
      (match (linear.Flow.mapped, adaptive.Flow.mapped) with
      | None, None -> ()
      | Some l, Some a ->
        if not (String.equal (Mapped.to_verilog l) (Mapped.to_verilog a)) then
          QCheck.Test.fail_reportf "seed %d: mapped netlists differ" seed
      | _ -> QCheck.Test.fail_reportf "seed %d: mapped presence differs" seed);
      (match (linear.Flow.routing, adaptive.Flow.routing) with
      | None, None -> ()
      | Some l, Some a ->
        if l.Router.routes <> a.Router.routes then
          QCheck.Test.fail_reportf "seed %d: routed paths differ" seed
      | _ -> QCheck.Test.fail_reportf "seed %d: routing presence differs" seed);
      let linear_routed =
        List.length
          (List.filter
             (fun (it : Flow.iteration) ->
               (not it.Flow.estimated) && it.Flow.hpwl_um < infinity)
             linear.Flow.iterations)
      in
      if stats.Flow.real_routes <> linear_routed then
        QCheck.Test.fail_reportf
          "seed %d: adaptive paid %d real routes, pruned linear pays %d" seed
          stats.Flow.real_routes linear_routed;
      true)

let test_adaptive_over_capacity () =
  (* Nothing legalizes: the search must rule out every ladder point
     without a single negotiated route and agree with the linear loop
     that no K is acceptable. *)
  let net = small_circuit 2 in
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan = Floorplan.of_rows ~num_rows:4 ~sites_per_row:40 ~geometry in
  let linear =
    Reference_flow.run ~subject ~library:lib ~floorplan ~rng:(Rng.create 3) ()
  in
  let adaptive, stats =
    Flow.run_adaptive ~subject ~library:lib ~floorplan ~rng:(Rng.create 3) ()
  in
  Alcotest.(check bool) "linear rejects" true (linear.Flow.accepted = None);
  Alcotest.(check bool) "adaptive rejects" true (adaptive.Flow.accepted = None);
  Alcotest.(check int) "no real routes spent" 0 stats.Flow.real_routes;
  Alcotest.(check bool) "no frontier" true (stats.Flow.frontier_k = None)

let test_adaptive_route_budget () =
  (* On a comfortably-routable circuit the ladder's acceptance sits at
     its very first point: one confirming route, never the 14 the linear
     schedule walks. *)
  let net = small_circuit 1 in
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.3 ~aspect:1.0 ~geometry
  in
  let outcome, stats =
    Flow.run_adaptive ~subject ~library:lib ~floorplan ~rng:(Rng.create 2) ()
  in
  (match outcome.Flow.accepted with
  | Some it -> Alcotest.(check (float 1e-9)) "accepted at K=0" 0.0 it.Flow.k
  | None -> Alcotest.fail "loose floorplan should route");
  Alcotest.(check bool)
    (Printf.sprintf "route budget respected (%d <= 6)" stats.Flow.real_routes)
    true
    (stats.Flow.real_routes <= 6);
  Alcotest.(check bool) "routing returned" true (outcome.Flow.routing <> None)

(* ---------------------- synthesis orchestration ---------------------- *)

let orchestrate_floorplan_of subject =
  Floorplan.for_area
    ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
    ~utilization:0.5 ~aspect:1.0 ~geometry

let test_orchestrate_beats_baseline () =
  let net = small_circuit 1 in
  let r =
    Flow.orchestrate ~budget:4 ~optimize:false ~network:net ~library:lib
      ~floorplan_of:orchestrate_floorplan_of ~seed:1 ()
  in
  Alcotest.(check int) "baseline leads the schedule" 0
    (match r.Flow.evaluations with
    | b :: _ when b.Flow.cand_label = "baseline" -> 0
    | _ -> 1);
  Alcotest.(check int) "candidate count" 5 (List.length r.Flow.evaluations);
  Alcotest.(check bool)
    (Printf.sprintf "best %d gates <= baseline %d" r.Flow.best.Flow.gates
       r.Flow.baseline.Flow.gates)
    true
    (r.Flow.best.Flow.gates <= r.Flow.baseline.Flow.gates);
  (* The selected candidate carries an accepted, equivalent mapped netlist
     (orchestrate miter-checks internally; re-check functionally here). *)
  let outcome =
    match r.Flow.best.Flow.result with
    | Some (o, _) -> o
    | None -> Alcotest.fail "selected candidate was guarded"
  in
  match outcome.Flow.mapped with
  | None -> Alcotest.fail "selected candidate did not accept"
  | Some mapped ->
    let rng = Rng.create 11 in
    for _ = 1 to 8 do
      let stimulus = Network.random_vectors rng net in
      if Network.simulate net stimulus <> Mapped.simulate mapped stimulus then
        Alcotest.fail "selected mapped netlist is not equivalent";
      if Network.simulate net stimulus
         <> Subject.simulate r.Flow.best_subject stimulus
      then Alcotest.fail "selected subject is not equivalent"
    done

let test_orchestrate_deterministic () =
  let run () =
    let net = small_circuit 3 in
    let r =
      Flow.orchestrate ~budget:6 ~optimize:false ~network:net ~library:lib
        ~floorplan_of:orchestrate_floorplan_of ~seed:7 ()
    in
    let digest =
      List.map
        (fun (e : Flow.candidate_eval) ->
          ( e.Flow.cand_label,
            e.Flow.gates,
            e.Flow.guarded,
            match e.Flow.result with
            | None -> None
            | Some (o, _) ->
              Some
                ( Option.map (fun it -> it.Flow.k) o.Flow.accepted,
                  Option.map Mapped.to_verilog o.Flow.mapped ) ))
        r.Flow.evaluations
    in
    (r.Flow.best_index, digest)
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same selection" (fst a) (fst b);
  Alcotest.(check bool) "bit-identical evaluations" true (snd a = snd b)

let test_orchestrate_jobs_parity () =
  (* The pooled evaluation must reproduce the sequential one exactly. *)
  let net = small_circuit 4 in
  let go jobs =
    let r =
      Flow.orchestrate ~budget:4 ~optimize:false ~jobs ~network:net
        ~library:lib ~floorplan_of:orchestrate_floorplan_of ~seed:5 ()
    in
    ( r.Flow.best_index,
      List.map (fun (e : Flow.candidate_eval) -> (e.Flow.cand_label, e.Flow.gates))
        r.Flow.evaluations )
  in
  Alcotest.(check bool) "jobs=1 == jobs=4" true (go 1 = go 4)

let () =
  Alcotest.run "flow"
    [
      ( "flow",
        [
          Alcotest.test_case "loose floorplan" `Quick test_flow_loose_floorplan_accepts_first;
          Alcotest.test_case "tight floorplan iterates" `Quick
            test_flow_iterates_on_tight_floorplan;
          Alcotest.test_case "function preserved" `Quick
            test_flow_function_preserved_through_accepted;
          Alcotest.test_case "metrics consistent" `Quick test_flow_metrics_consistent;
        ] );
      ( "adaptive",
        [
          QCheck_alcotest.to_alcotest prop_adaptive_matches_linear;
          Alcotest.test_case "over-capacity" `Quick test_adaptive_over_capacity;
          Alcotest.test_case "route budget" `Quick test_adaptive_route_budget;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "sis vs baseline" `Quick test_full_pipeline_sis_vs_baseline;
          Alcotest.test_case "with sta" `Quick test_pipeline_with_sta;
        ] );
      ( "orchestrate",
        [
          Alcotest.test_case "beats baseline" `Quick
            test_orchestrate_beats_baseline;
          Alcotest.test_case "deterministic" `Quick
            test_orchestrate_deterministic;
          Alcotest.test_case "jobs parity" `Quick test_orchestrate_jobs_parity;
        ] );
    ]
