(* lib/estimate: the millisecond congestion forecast. The golden-corpus
   differential pins a minimum rank correlation between the estimated
   and the routed per-gcell utilization maps at every K; qcheck
   properties pin monotonicity under added demand and the pruning
   soundness contract (a pruned sweep's accepted K is bit-identical to
   an unpruned one over the full default schedule); degenerate inputs
   must answer Uncertain instead of raising; pinned digests hold every
   bit of a few forecasts. *)

module Estimate = Cals_estimate.Estimate
module Flow = Cals_core.Flow
module Reference_flow = Cals_reference.Reference_flow
module Congestion = Cals_route.Congestion
module Router = Cals_route.Router
module Rgrid = Cals_route.Rgrid
module Subject = Cals_netlist.Subject
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Library = Cals_cell.Library
module Grid2d = Cals_util.Grid2d
module Geom = Cals_util.Geom
module Gen = Cals_workload.Gen
module Rng = Cals_util.Rng

let lib = Cals_cell.Stdlib_018.library
let geometry = Library.geometry lib
let wire = Library.wire lib

let forecast_of_pins ?density ~floorplan nets =
  Estimate.forecast (Router.Request.of_pins ?density ~floorplan ~wire nets)

let golden_dir =
  Option.value (Sys.getenv_opt "CALS_GOLDEN_DIR") ~default:"golden"

let subject_of net =
  Cals_logic.Network.sweep net;
  Cals_logic.Decompose.subject_of_network net

(* The golden suite's floorplan recipe, so the differential here scores
   exactly the placements test_golden.ml snapshots. *)
let workload_of ?(utilization = 0.45) subject =
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization ~aspect:1.0 ~geometry
  in
  let positions =
    Placement.place_subject subject ~floorplan ~rng:(Rng.create 42)
  in
  (floorplan, positions)

(* ------------------------- rank correlation ------------------------- *)

let flatten g =
  let cols = Grid2d.cols g and rows = Grid2d.rows g in
  Array.init (cols * rows) (fun i -> Grid2d.get g (i mod cols) (i / cols))

(* Spearman rank correlation with average ranks for ties. *)
let ranks xs =
  let n = Array.length xs in
  let idx = Array.init n Fun.id in
  Array.sort (fun a b -> compare xs.(a) xs.(b)) idx;
  let r = Array.make n 0.0 in
  let i = ref 0 in
  while !i < n do
    let j = ref !i in
    while !j + 1 < n && xs.(idx.(!j + 1)) = xs.(idx.(!i)) do
      incr j
    done;
    let avg = (float_of_int (!i + !j) /. 2.0) +. 1.0 in
    for k = !i to !j do
      r.(idx.(k)) <- avg
    done;
    i := !j + 1
  done;
  r

let spearman a b =
  let ra = ranks a and rb = ranks b in
  let n = float_of_int (Array.length a) in
  let mean xs = Array.fold_left ( +. ) 0.0 xs /. n in
  let ma = mean ra and mb = mean rb in
  let num = ref 0.0 and da = ref 0.0 and db = ref 0.0 in
  Array.iteri
    (fun i _ ->
      let x = ra.(i) -. ma and y = rb.(i) -. mb in
      num := !num +. (x *. y);
      da := !da +. (x *. x);
      db := !db +. (y *. y))
    ra;
  if !da = 0.0 || !db = 0.0 then 0.0 else !num /. sqrt (!da *. !db)

let golden_designs =
  [
    "pla_shared_08"; "pla_wide_10"; "ml_control_10"; "ml_deep_08";
    "pla_small_06";
  ]

let golden_k_points = [ 0.0; 0.0005; 0.001; 0.005; 0.01; 0.1 ]

(* Measured floor: the worst design-K pair of the corpus sits at 0.49
   (ml_control_10, K=0); most pairs score 0.75-0.96. Any estimator
   change that drags a pair under 0.4 has stopped ranking hotspots the
   way the router experiences them. *)
let min_rho = 0.4

let test_golden_rank_correlation () =
  List.iter
    (fun name ->
      let subject =
        subject_of
          (Cals_logic.Blif.read_file
             (Filename.concat golden_dir (name ^ ".blif")))
      in
      let floorplan, positions = workload_of subject in
      List.iter
        (fun k ->
          let _it, (mapped, placement, routing) =
            Flow.evaluate_k ~estimate:Estimate.Off ~subject ~library:lib
              ~floorplan ~positions ~k ()
          in
          match (placement, routing) with
          | Some placement, Some routing ->
            let f =
              Estimate.forecast_mapped mapped ~floorplan ~wire ~placement
            in
            let rho =
              spearman
                (flatten f.Estimate.maps.Estimate.utilization)
                (flatten (Congestion.gcell_map routing))
            in
            if rho < min_rho then
              Alcotest.failf
                "%s K=%g: estimated/routed utilization rank correlation \
                 %.3f below the %.2f floor"
                name k rho min_rho;
            (* The whole corpus routes with zero violations, and the
               calibration must say so confidently. *)
            if f.Estimate.verdict <> Estimate.Routable then
              Alcotest.failf "%s K=%g: golden corpus verdict %s, not routable"
                name k
                (Estimate.verdict_to_string f.Estimate.verdict)
          | _ -> Alcotest.failf "%s K=%g did not route" name k)
        golden_k_points)
    golden_designs

(* ------------------------- pruning ------------------------- *)

(* Two metal layers halve the supply, so this PLA at 0.85 utilization is
   confidently over capacity at K >= 0.01 — the pruner must actually
   skip there, and the sweep's QoR must not move. *)
let congested_config =
  { Router.default_config with Router.layers = 2 }

let congested_subject () =
  subject_of (Gen.pla ~rng:(Rng.create 301) ~inputs:8 ~outputs:6 ~products:40 ())

let same_iteration (a : Flow.iteration) (b : Flow.iteration) =
  a.Flow.k = b.Flow.k && a.Flow.cells = b.Flow.cells
  && a.Flow.cell_area = b.Flow.cell_area
  && a.Flow.hpwl_um = b.Flow.hpwl_um

let test_prune_skips_and_preserves_qor () =
  let subject = congested_subject () in
  let floorplan, _ = workload_of ~utilization:0.85 subject in
  let k_schedule = [ 0.0; 0.01; 0.1 ] in
  let run estimate =
    Reference_flow.run ~k_schedule ~router_config:congested_config ~estimate
      ~subject ~library:lib ~floorplan ~rng:(Rng.create 7) ()
  in
  let off = run Estimate.Off and pruned = run Estimate.Prune in
  let skipped =
    List.filter (fun it -> it.Flow.estimated) pruned.Flow.iterations
  in
  Alcotest.(check bool)
    "the pruner skipped at least one negotiated route" true
    (skipped <> []);
  Alcotest.(check bool)
    "an unpruned sweep routes everything" true
    (List.for_all
       (fun it -> not it.Flow.estimated)
       off.Flow.iterations);
  (* Skipped points always carry violations, so none of them can be the
     accepted one. *)
  List.iter
    (fun it ->
      Alcotest.(check bool)
        "a skipped point carries violations" true
        (it.Flow.report.Congestion.violations > 0))
    skipped;
  Alcotest.(check int) "same schedule walked"
    (List.length off.Flow.iterations)
    (List.length pruned.Flow.iterations);
  (* The pruning win as a count: at least a third of the walked points
     pay no negotiated route, and every one of them really fails to
     route in the unpruned walk (no routable point is ever ruled out). *)
  Alcotest.(check bool)
    (Printf.sprintf "skipped %d of %d points, at least a third"
       (List.length skipped)
       (List.length pruned.Flow.iterations))
    true
    (3 * List.length skipped >= List.length pruned.Flow.iterations);
  List.iter2
    (fun o p ->
      if p.Flow.estimated then
        Alcotest.(check bool)
          (Printf.sprintf "skipped K=%g has violations unpruned (%d)" o.Flow.k
             o.Flow.report.Congestion.violations)
          true
          (o.Flow.report.Congestion.violations >= 1))
    off.Flow.iterations pruned.Flow.iterations;
  List.iter2
    (fun o p ->
      Alcotest.(check bool)
        (Printf.sprintf "K=%g netlist metrics identical" o.Flow.k)
        true (same_iteration o p))
    off.Flow.iterations pruned.Flow.iterations;
  match (off.Flow.accepted, pruned.Flow.accepted) with
  | None, None -> ()
  | Some o, Some p ->
    Alcotest.(check bool) "accepted iteration identical" true
      (same_iteration o p && o.Flow.report = p.Flow.report);
    Alcotest.(check bool) "accepted point was really routed" true
      (not p.Flow.estimated)
  | _ -> Alcotest.fail "pruning moved the accepted K"

(* The soundness contract over the paper's full 14-point ladder, on
   random workloads spanning comfortably-routable and over-capacity
   floorplans: the pruned sweep's accepted iteration — and the schedule
   prefix it walked — must be bit-identical to the unpruned sweep's. *)
let prop_pruned_accepted_identical =
  QCheck.Test.make ~count:6
    ~name:"pruned sweep == unpruned sweep on the full default schedule"
    QCheck.(
      triple (int_range 0 10_000) (int_range 0 2) (int_range 0 1))
    (fun (seed, crowd, fam) ->
      let family = if fam = 0 then `Pla else `Multilevel in
      let subject =
        subject_of (Gen.of_fuzz ~family ~seed ~inputs:6 ~outputs:3 ~size:14)
      in
      let utilization = [| 0.45; 0.65; 0.85 |].(crowd) in
      let layers = if crowd = 2 then 2 else 3 in
      let router_config = { Router.default_config with Router.layers } in
      let floorplan, _ = workload_of ~utilization subject in
      let run estimate =
        Reference_flow.run ~router_config ~estimate ~subject ~library:lib
          ~floorplan ~rng:(Rng.create (seed + 1)) ()
      in
      let off = run Estimate.Off and pruned = run Estimate.Prune in
      if List.length off.Flow.iterations <> List.length pruned.Flow.iterations
      then
        QCheck.Test.fail_reportf
          "seed %d: pruned sweep walked %d points, unpruned %d" seed
          (List.length pruned.Flow.iterations)
          (List.length off.Flow.iterations);
      (match (off.Flow.accepted, pruned.Flow.accepted) with
      | None, None -> ()
      | Some o, Some p ->
        if not (same_iteration o p && o.Flow.report = p.Flow.report) then
          QCheck.Test.fail_reportf
            "seed %d: accepted K moved (unpruned %g, pruned %g)" seed o.Flow.k
            p.Flow.k;
        if p.Flow.estimated then
          QCheck.Test.fail_reportf
            "seed %d: accepted iteration was not really routed" seed
      | o, p ->
        QCheck.Test.fail_reportf "seed %d: acceptance differs (%s vs %s)" seed
          (match o with Some _ -> "accepted" | None -> "rejected")
          (match p with Some _ -> "accepted" | None -> "rejected"));
      true)

(* A Routable forecast only ever seeds the adaptive bisection — it must
   never stand in for the confirming route. On the congested fixture
   swept across utilizations that straddle the calibration threshold,
   whatever K the adaptive search accepts must come from a real route
   with zero violations, re-confirmed by an independent estimator-off
   run restricted to that K alone. *)
let test_routable_seed_never_accepts_violations () =
  let subject = congested_subject () in
  List.iter
    (fun utilization ->
      let floorplan, _ = workload_of ~utilization subject in
      let outcome, stats =
        Flow.run_adaptive ~router_config:congested_config ~subject
          ~library:lib ~floorplan ~rng:(Rng.create 9) ()
      in
      match outcome.Flow.accepted with
      | None -> ()
      | Some it ->
        Alcotest.(check bool)
          (Printf.sprintf "util %.2f: accepted K=%g came from a real route"
             utilization it.Flow.k)
          true (not it.Flow.estimated);
        Alcotest.(check int)
          (Printf.sprintf "util %.2f: accepted K=%g routes clean" utilization
             it.Flow.k)
          0 it.Flow.report.Congestion.violations;
        Alcotest.(check bool) "at least one confirming route was paid" true
          (stats.Flow.real_routes >= 1);
        let confirm =
          Reference_flow.run ~k_schedule:[ it.Flow.k ]
            ~router_config:congested_config ~estimate:Estimate.Off ~subject ~library:lib ~floorplan
            ~rng:(Rng.create 9) ()
        in
        (match confirm.Flow.accepted with
        | Some c ->
          Alcotest.(check bool)
            (Printf.sprintf "util %.2f: independent route at K=%g agrees"
               utilization it.Flow.k)
            true
            (same_iteration it c
            && it.Flow.report = c.Flow.report
            && not c.Flow.estimated)
        | None ->
          Alcotest.failf
            "util %.2f: accepted K=%g fails an independent real route"
            utilization it.Flow.k))
    [ 0.45; 0.65; 0.75; 0.85 ]

(* ------------------------- monotonicity ------------------------- *)

let arb_nets floorplan =
  let die_w = floorplan.Floorplan.die_width
  and die_h = floorplan.Floorplan.die_height in
  let open QCheck in
  let point =
    map
      (fun (fx, fy) -> { Geom.x = fx *. die_w; y = fy *. die_h })
      (pair (float_bound_inclusive 1.0) (float_bound_inclusive 1.0))
  in
  let net = list_of_size Gen.(2 -- 5) point in
  list_of_size Gen.(0 -- 20) net

(* More nets can only add demand: both the overflow score and the total
   wire density are monotone under net insertion. *)
let prop_estimate_monotone =
  let floorplan = Floorplan.of_rows ~num_rows:12 ~sites_per_row:60 ~geometry in
  QCheck.Test.make ~count:100
    ~name:"forecast demand is monotone under added nets"
    QCheck.(pair (arb_nets floorplan) (arb_nets floorplan))
    (fun (base, extra) ->
      let forecast nets =
        forecast_of_pins ~floorplan (Array.of_list nets)
      in
      let f0 = forecast base and f1 = forecast (base @ extra) in
      if f1.Estimate.overflow_score < f0.Estimate.overflow_score then
        QCheck.Test.fail_reportf "overflow score shrank: %g -> %g"
          f0.Estimate.overflow_score f1.Estimate.overflow_score;
      let demand f = Grid2d.total f.Estimate.maps.Estimate.wire_density in
      if demand f1 < demand f0 then
        QCheck.Test.fail_reportf "wire demand shrank: %g -> %g" (demand f0)
          (demand f1);
      if f1.Estimate.peak_utilization < f0.Estimate.peak_utilization then
        QCheck.Test.fail_reportf "peak utilization shrank: %g -> %g"
          f0.Estimate.peak_utilization f1.Estimate.peak_utilization;
      true)

(* ------------------------- degenerate inputs ------------------------- *)

let test_degenerate_inputs () =
  let check_uncertain what f =
    let forecast = try f () with exn ->
      Alcotest.failf "%s raised %s" what (Printexc.to_string exn)
    in
    Alcotest.(check string) (what ^ " answers Uncertain") "uncertain"
      (Estimate.verdict_to_string forecast.Estimate.verdict)
  in
  (* A single-site floorplan folds to (almost) a single gcell: the grid
     is too small for the thresholds to mean anything. *)
  let tiny = Floorplan.of_rows ~num_rows:1 ~sites_per_row:1 ~geometry in
  check_uncertain "a single-site floorplan" (fun () ->
      forecast_of_pins ~floorplan:tiny
        [| [ { Geom.x = 0.1; y = 0.1 }; { Geom.x = 0.4; y = 0.2 } ] |]);
  let plan = Floorplan.of_rows ~num_rows:10 ~sites_per_row:50 ~geometry in
  (* No nets at all, and nets whose pins never leave their gcell: there
     is no routing demand to score. *)
  check_uncertain "an empty netlist" (fun () ->
      forecast_of_pins ~floorplan:plan [||]);
  check_uncertain "one-pin nets" (fun () ->
      forecast_of_pins ~floorplan:plan
        [| [ { Geom.x = 5.0; y = 5.0 } ]; []; [ { Geom.x = 40.0; y = 3.0 } ] |]);
  check_uncertain "zero-area nets inside one gcell" (fun () ->
      forecast_of_pins ~floorplan:plan
        [| [ { Geom.x = 1.0; y = 1.0 }; { Geom.x = 1.0; y = 1.0 } ] |]);
  (* Pins off the die clamp into the boundary gcells instead of raising. *)
  let f =
    forecast_of_pins ~floorplan:plan
      [|
        [ { Geom.x = -50.0; y = -50.0 }; { Geom.x = 1e6; y = 1e6 } ];
        [ { Geom.x = 0.0; y = 0.0 }; { Geom.x = 30.0; y = 30.0 } ];
      |]
  in
  Alcotest.(check bool) "off-die pins clamp into the grid" true
    (f.Estimate.overflow_score >= 0.0);
  Alcotest.(check bool) "off-die demand lands in the maps" true
    (Grid2d.total f.Estimate.maps.Estimate.pin_density > 0.0)

let test_verdict_thresholds () =
  let v = Estimate.verdict_of_scores in
  Alcotest.(check string) "degenerate forces uncertain" "uncertain"
    (Estimate.verdict_to_string
       (v ~degenerate:true ~normalized_overflow:0.0 ~peak_utilization:0.0));
  Alcotest.(check string) "clean map is routable" "routable"
    (Estimate.verdict_to_string
       (v ~degenerate:false ~normalized_overflow:0.0 ~peak_utilization:0.5));
  Alcotest.(check string) "overflow past the floor is unroutable" "unroutable"
    (Estimate.verdict_to_string
       (v ~degenerate:false
          ~normalized_overflow:Estimate.unroutable_min_norm
          ~peak_utilization:0.5));
  Alcotest.(check string) "boundary overflow is uncertain" "uncertain"
    (Estimate.verdict_to_string
       (v ~degenerate:false
          ~normalized_overflow:(Estimate.unroutable_min_norm /. 2.0)
          ~peak_utilization:0.5));
  Alcotest.(check string) "hot peak blocks a routable verdict" "uncertain"
    (Estimate.verdict_to_string
       (v ~degenerate:false ~normalized_overflow:0.0
          ~peak_utilization:(Estimate.routable_max_peak +. 0.01)));
  (* The calibration's soundness margin: the confident bands must not
     touch (see DESIGN.md, Section 4k). *)
  Alcotest.(check bool) "a dead band separates the confident verdicts" true
    (Estimate.unroutable_min_norm > 10.0 *. Estimate.routable_max_norm)

(* ------------------------- the gcell accessor ------------------------- *)

let test_gcell_accessor () =
  let subject = subject_of (Gen.of_fuzz ~family:`Pla ~seed:11 ~inputs:6 ~outputs:3 ~size:12) in
  let floorplan, positions = workload_of ~utilization:0.55 subject in
  let _it, (_, _, routing) =
    Flow.evaluate_k ~estimate:Estimate.Off ~subject ~library:lib ~floorplan
      ~positions ~k:0.0 ()
  in
  let routing =
    match routing with Some r -> r | None -> Alcotest.fail "did not route"
  in
  let map = Congestion.gcell_map routing in
  let cols, rows, _ = Rgrid.dims ~floorplan ~gcell_rows:Router.default_config.Router.gcell_rows in
  Alcotest.(check int) "map cols match the router grid" cols (Grid2d.cols map);
  Alcotest.(check int) "map rows match the router grid" rows (Grid2d.rows map);
  Grid2d.iter
    (fun c r v ->
      if Congestion.gcell routing c r <> v then
        Alcotest.failf "gcell (%d,%d) disagrees with gcell_map" c r)
    map;
  List.iter
    (fun (c, r) ->
      match Congestion.gcell routing c r with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "gcell (%d,%d) out of bounds did not raise" c r)
    [ (-1, 0); (0, -1); (cols, 0); (0, rows) ]

(* ------------------------- pinned forecasts ------------------------- *)

(* Digest of everything a forecast decides: the float bits of all four
   per-gcell maps and of every score, the predicted violations and the
   verdict. The pins below were recorded before the router and the
   estimator shared one route request; any change to pin gcells, the
   supply model or the fold order moves them. *)
let forecast_digest (f : Estimate.forecast) =
  let b = Buffer.create 65536 in
  let bits x =
    Buffer.add_string b (Int64.to_string (Int64.bits_of_float x) ^ ",")
  in
  let grid g =
    Buffer.add_string b
      (Printf.sprintf "%dx%d:" (Grid2d.cols g) (Grid2d.rows g));
    Grid2d.iter (fun _ _ v -> bits v) g;
    Buffer.add_char b ';'
  in
  let m = f.Estimate.maps in
  List.iter grid
    [
      m.Estimate.wire_density; m.Estimate.pin_density; m.Estimate.supply;
      m.Estimate.utilization;
    ];
  List.iter bits
    [
      f.Estimate.overflow_score; f.Estimate.normalized_overflow;
      f.Estimate.peak_utilization; f.Estimate.hot_fraction; f.Estimate.hpwl_um;
    ];
  Buffer.add_string b (string_of_int f.Estimate.predicted_violations);
  Buffer.add_string b (Estimate.verdict_to_string f.Estimate.verdict);
  Digest.to_hex (Digest.string (Buffer.contents b))

(* test_route's congested workload: a narrow corridor crossed by long
   parallel nets plus random two-pin nets. *)
let congested_floorplan =
  Floorplan.of_rows ~num_rows:8 ~sites_per_row:400 ~geometry

let congested_nets seed n =
  let rng = Rng.create seed in
  Array.init n (fun i ->
      if i mod 3 = 0 then begin
        let y = float_of_int (i mod 8) +. 2.0 in
        [
          Geom.point 1.0 y;
          Geom.point (congested_floorplan.Floorplan.die_width -. 1.0) y;
        ]
      end
      else
        List.init 2 (fun _ ->
            Geom.point
              (Rng.float rng congested_floorplan.Floorplan.die_width)
              (Rng.float rng congested_floorplan.Floorplan.die_height)))

(* Seed 42 also carries a density map one column short of the grid, with
   values outside [0, 1], so the supply model's clamped density lookup
   is pinned too. *)
let congested_density seed =
  if seed <> 42 then None
  else begin
    let cols, rows, _ =
      Rgrid.dims ~floorplan:congested_floorplan
        ~gcell_rows:Router.default_config.Router.gcell_rows
    in
    let rng = Rng.create seed in
    let g = Grid2d.create ~cols:(cols - 1) ~rows 0.0 in
    Grid2d.map_inplace (fun _ -> Rng.float rng 1.4 -. 0.2) g;
    Some g
  end

let forecast_pins_pinned =
  [
    (40, "4839c06985e13a96153a4840b60253d2");
    (41, "49b6a367ec4f00fa92566cef111f0229");
    (42, "61f4915f6749af2475e6877a1a44f19a");
  ]

let test_forecast_pinned_congested () =
  List.iter
    (fun (seed, want) ->
      let f =
        forecast_of_pins ?density:(congested_density seed)
          ~floorplan:congested_floorplan (congested_nets seed 240)
      in
      Alcotest.(check string)
        (Printf.sprintf "congested_nets %d" seed)
        want (forecast_digest f))
    forecast_pins_pinned

(* test_route's PDC-like fixture: scale 0.05, 85 % utilization, K = 0. *)
let test_forecast_pinned_pdc () =
  let net = Cals_workload.Presets.pdc_like ~scale:0.05 ~seed:1 () in
  Cals_logic.Optimize.script_light net;
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.85 ~aspect:1.0 ~geometry
  in
  let positions = Placement.place_subject subject ~floorplan ~rng:(Rng.create 7) in
  let mapped =
    (Cals_core.Mapper.map subject ~library:lib ~positions
       (Cals_core.Mapper.congestion_aware ~k:0.0))
      .Cals_core.Mapper.mapped
  in
  let placement = Placement.place_mapped_seeded mapped ~floorplan in
  let f = Estimate.forecast_mapped mapped ~floorplan ~wire ~placement in
  Alcotest.(check string) "pdc 0.05 @ 85%" "22cb75cfa4f989f92c05b7ee9a923478" (forecast_digest f)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "estimate"
    [
      ( "golden",
        [
          Alcotest.test_case "rank-correlation" `Quick
            test_golden_rank_correlation;
        ] );
      ( "pruning",
        [
          Alcotest.test_case "skips-and-preserves-qor" `Quick
            test_prune_skips_and_preserves_qor;
          qc prop_pruned_accepted_identical;
        ] );
      ( "adaptive",
        [
          Alcotest.test_case "routable-seed-soundness" `Quick
            test_routable_seed_never_accepts_violations;
        ] );
      ("properties", [ qc prop_estimate_monotone ]);
      ( "degenerate",
        [
          Alcotest.test_case "inputs" `Quick test_degenerate_inputs;
          Alcotest.test_case "thresholds" `Quick test_verdict_thresholds;
        ] );
      ("congestion", [ Alcotest.test_case "gcell-accessor" `Quick test_gcell_accessor ]);
      ( "pinned",
        [
          Alcotest.test_case "congested_nets 40-42" `Quick
            test_forecast_pinned_congested;
          Alcotest.test_case "pdc 0.05 @ 85%" `Quick test_forecast_pinned_pdc;
        ] );
    ]
