(* lib/estimate: the millisecond congestion forecast. The golden-corpus
   differential pins a minimum rank correlation between the estimated
   and the routed per-gcell utilization maps at every K; qcheck
   properties pin monotonicity under added demand and the pruning
   soundness contract (a pruned sweep's accepted K is bit-identical to
   an unpruned one over the full default schedule); degenerate inputs
   must answer Uncertain instead of raising; the cut certificate behind
   every Unroutable verdict is checked against real routes on random
   requests and pinned at its boundary; pinned digests hold every bit
   of a few forecasts' maps and scores, next to their verdicts. *)

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
          (Result.get_ok
             (Cals_logic.Blif.load (Filename.concat golden_dir (name ^ ".blif"))))
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
      let demand f =
        Grid2d.fold
          (fun _ _ v acc -> acc +. v)
          f.Estimate.maps.Estimate.wire_density 0.0
      in
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
    (Grid2d.fold
       (fun _ _ v acc -> acc +. v)
       f.Estimate.maps.Estimate.pin_density 0.0
    > 0.0)

(* A 4 x 4 gcell grid without a density map: every edge offers
   18 tracks x (1 + 1.3) = 41.4, so a line of four edges floors to 164
   against 165.6 unfloored — more than one crossing apart, so only the
   floored sum can sit on the boundary. *)
let boundary_floorplan =
  Floorplan.of_rows ~num_rows:8 ~sites_per_row:60 ~geometry

let boundary_floored edges =
  let g = Rgrid.create ~floorplan:boundary_floorplan ~wire ~layers:3 () in
  let floored =
    List.fold_left
      (fun acc e -> acc + int_of_float (Float.floor (Rgrid.capacity g e)))
      0 edges
  in
  let unfloored =
    List.fold_left (fun acc e -> acc +. Rgrid.capacity g e) 0.0 edges
  in
  if unfloored < float_of_int (floored + 1) then
    Alcotest.fail "boundary fixture: floored and unfloored sums too close";
  floored

let gcell_centre c r =
  let g = 2.0 *. geometry.Library.row_height in
  Geom.point ((float_of_int c +. 0.5) *. g) ((float_of_int r +. 0.5) *. g)

(* [n] two-pin nets crossing only column line 0 (resp. row line 0),
   spread over the rows (resp. columns). *)
let column_nets n =
  Array.init n (fun i -> [ gcell_centre 0 (i mod 4); gcell_centre 1 (i mod 4) ])

let row_nets n =
  Array.init n (fun i -> [ gcell_centre (i mod 4) 0; gcell_centre (i mod 4) 1 ])

let cut_of_nets nets =
  Router.Cut.of_request
    (Router.Request.of_pins ~floorplan:boundary_floorplan ~wire nets)

let test_verdict_thresholds () =
  let v = Estimate.verdict_of_scores in
  Alcotest.(check string) "degenerate forces uncertain" "uncertain"
    (Estimate.verdict_to_string
       (v ~degenerate:true ~normalized_overflow:0.0 ~peak_utilization:0.0));
  Alcotest.(check string) "clean map is routable" "routable"
    (Estimate.verdict_to_string
       (v ~degenerate:false ~normalized_overflow:0.0 ~peak_utilization:0.5));
  Alcotest.(check string) "no score alone is unroutable" "uncertain"
    (Estimate.verdict_to_string
       (v ~degenerate:false ~normalized_overflow:1.0 ~peak_utilization:5.0));
  Alcotest.(check string) "hot peak blocks a routable verdict" "uncertain"
    (Estimate.verdict_to_string
       (v ~degenerate:false ~normalized_overflow:0.0
          ~peak_utilization:(Estimate.routable_max_peak +. 0.01)));
  (* The Unroutable threshold is the certificate's: crossings equal to a
     line's floored capacity certify nothing, one more certifies. *)
  List.iter
    (fun (axis, line_edges, nets) ->
      let name = Router.Cut.axis_to_string axis in
      let cap = boundary_floored line_edges in
      let cut n = cut_of_nets (nets n) in
      let at = cut cap and over = cut (cap + 1) in
      Alcotest.(check bool) (name ^ " line at its floored capacity") false
        at.Router.Cut.certified;
      Alcotest.(check bool)
        (name ^ " line one past its floored capacity")
        true over.Router.Cut.certified;
      Alcotest.(check bool) (name ^ " worst line is the crossed one") true
        (over.Router.Cut.worst
        = { Router.Cut.axis; index = 0; crossings = cap + 1;
            floored_capacity = cap });
      let f = forecast_of_pins ~floorplan:boundary_floorplan (nets (cap + 1)) in
      Alcotest.(check string) (name ^ " certified forecast") "unroutable"
        (Estimate.verdict_to_string f.Estimate.verdict);
      Alcotest.(check int) (name ^ " certified bound") 1
        f.Estimate.predicted_violations;
      let r =
        Router.route
          (Router.Request.of_pins ~floorplan:boundary_floorplan ~wire
             (nets (cap + 1)))
      in
      Alcotest.(check bool) (name ^ " certified request violates") true
        (r.Router.violations >= 1))
    [
      (Router.Cut.Column, List.init 4 (fun r -> Rgrid.H (0, r)), column_nets);
      (Router.Cut.Row, List.init 4 (fun c -> Rgrid.V (c, 0)), row_nets);
    ]

(* ------------------------- the cut certificate ------------------------- *)

(* A certificate is a proof: whenever it fires, the real route of the
   same request has violations, at least as many as it reports. Random
   floorplans, gcell sizes, layer counts, density maps, net counts and
   pin spreads, under both the MST and the star decomposition. *)
let arb_cut_case =
  QCheck.(
    quad
      (triple (int_range 2 16) (int_range 4 90) (int_range 1 3))
      (pair (int_range 2 3) bool)
      (pair (int_range 0 300) (float_range 0.05 1.0))
      (int_range 0 10_000))

(* Route the case's request when it is certified and fail unless the
   route violates, at least as often as the certificate reports.
   Returns whether the request was certified. *)
let cut_case ((num_rows, sites_per_row, gcell_rows), (layers, star), (n, spread),
    seed) =
  (* QCheck's shrinker may step outside the generator's ranges. *)
  let num_rows = max 1 num_rows and sites_per_row = max 1 sites_per_row in
  let gcell_rows = max 1 gcell_rows and layers = max 2 layers in
  let n = max 0 n in
  let floorplan = Floorplan.of_rows ~num_rows ~sites_per_row ~geometry in
  let config =
    { Router.default_config with
      Router.gcell_rows; layers; star_topology = star }
  in
  let rng = Rng.create seed in
  let cols, rows, _ = Rgrid.dims ~floorplan ~gcell_rows in
  let density =
    if seed mod 3 = 0 then None
    else begin
      let g = Grid2d.create ~cols ~rows 0.0 in
      Grid2d.map_inplace (fun _ -> Rng.float rng 1.2 -. 0.1) g;
      Some g
    end
  in
  (* A net's pins scatter within [spread] of the die around a random
     centre. *)
  let w = floorplan.Floorplan.die_width
  and h = floorplan.Floorplan.die_height in
  let nets =
    Array.init n (fun _ ->
        let cx = Rng.float rng w and cy = Rng.float rng h in
        List.init
          (1 + Rng.int rng 4)
          (fun _ ->
            Geom.point
              (cx +. ((Rng.float rng 2.0 -. 1.0) *. spread *. w))
              (cy +. ((Rng.float rng 2.0 -. 1.0) *. spread *. h))))
  in
  let req = Router.Request.of_pins ~config ?density ~floorplan ~wire nets in
  let cut = Router.Cut.of_request req in
  if cut.Router.Cut.certified then begin
    let r = Router.route req in
    if r.Router.violations < 1 then
      QCheck.Test.fail_reportf "certified request routed clean (%d nets)" n;
    if Router.Cut.violations cut > r.Router.violations then
      QCheck.Test.fail_reportf "certified bound %d exceeds real violations %d"
        (Router.Cut.violations cut) r.Router.violations
  end;
  cut.Router.Cut.certified

let prop_certificate_sound =
  QCheck.Test.make ~count:60 ~name:"a certified request never routes clean"
    arb_cut_case
    (fun case -> ignore (cut_case case : bool); true)

(* The property must not pass vacuously: on a fixed sample of its
   cases, at least a quarter are certified. *)
let test_certificate_fires () =
  let sample =
    QCheck.Gen.generate ~rand:(Random.State.make [| 18 |]) ~n:40
      (QCheck.gen arb_cut_case)
  in
  let certified = List.length (List.filter cut_case sample) in
  Alcotest.(check bool)
    (Printf.sprintf "%d of 40 sampled requests certified" certified)
    true (4 * certified >= 40)

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
  Grid2d.fold
    (fun c r v () ->
      if Congestion.gcell routing c r <> v then
        Alcotest.failf "gcell (%d,%d) disagrees with gcell_map" c r)
    map ();
  List.iter
    (fun (c, r) ->
      match Congestion.gcell routing c r with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "gcell (%d,%d) out of bounds did not raise" c r)
    [ (-1, 0); (0, -1); (cols, 0); (0, rows) ]

(* ------------------------- pinned forecasts ------------------------- *)

(* Digest of the forecast's maps and scores: the float bits of all four
   per-gcell maps and of every score. The pins below were recorded before
   the router and the estimator shared one route request, and again
   before the verdict became a cut certificate (neither change moved
   them); any change to pin gcells, the supply model or the fold order
   moves them. The verdict and the predicted violations are pinned
   separately, next to each digest. *)
let maps_digest (f : Estimate.forecast) =
  let b = Buffer.create 65536 in
  let bits x =
    Buffer.add_string b (Int64.to_string (Int64.bits_of_float x) ^ ",")
  in
  let grid g =
    Buffer.add_string b
      (Printf.sprintf "%dx%d:" (Grid2d.cols g) (Grid2d.rows g));
    Grid2d.fold (fun _ _ v () -> bits v) g ();
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

let check_pinned what (digest, verdict, violations) (f : Estimate.forecast) =
  Alcotest.(check string) (what ^ " maps and scores") digest (maps_digest f);
  Alcotest.(check string) (what ^ " verdict") verdict
    (Estimate.verdict_to_string f.Estimate.verdict);
  Alcotest.(check int) (what ^ " predicted violations") violations
    f.Estimate.predicted_violations

let forecast_pins_pinned =
  [
    (40, ("1840ef35e4f9bde9e3f483dcf397dde1", "uncertain", 0));
    (41, ("948fc173294893a88e28872b1c92c304", "uncertain", 0));
    (42, ("757bc0ab06b855c91e6f69337a4e3641", "unroutable", 377));
  ]

let test_forecast_pinned_congested () =
  List.iter
    (fun (seed, want) ->
      let f =
        forecast_of_pins ?density:(congested_density seed)
          ~floorplan:congested_floorplan (congested_nets seed 240)
      in
      check_pinned (Printf.sprintf "congested_nets %d" seed) want f)
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
  check_pinned "pdc 0.05 @ 85%"
    ("cf538688560a55a1fff84b09b9aa6907", "unroutable", 65)
    f

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
      ( "soundness",
        [
          qc prop_certificate_sound;
          Alcotest.test_case "fires on the sample" `Quick
            test_certificate_fires;
        ] );
      ("congestion", [ Alcotest.test_case "gcell-accessor" `Quick test_gcell_accessor ]);
      ( "pinned",
        [
          Alcotest.test_case "congested_nets 40-42" `Quick
            test_forecast_pinned_congested;
          Alcotest.test_case "pdc 0.05 @ 85%" `Quick test_forecast_pinned_pdc;
        ] );
    ]
