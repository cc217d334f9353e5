(* The incremental K-loop engine: session mapping must be bit-identical
   to the cold reference mapper at every K, an unwarmed session must
   fill its cache on its first map (so later maps hit), and the hoisted
   equivalence-seed derivation must keep checked runs deterministic
   regardless of cache reuse. *)

module Incremental = Cals_core.Incremental
module Mapper = Cals_core.Mapper
module Reference_mapper = Cals_reference.Reference_mapper
module Cover = Cals_core.Cover
module Partition = Cals_core.Partition
module Flow = Cals_core.Flow
module Reference_flow = Cals_reference.Reference_flow
module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Congestion = Cals_route.Congestion
module Router = Cals_route.Router
module Check = Cals_verify.Check
module Invariant = Cals_verify.Invariant
module Gen = Cals_workload.Gen
module Rng = Cals_util.Rng

let lib = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry lib

(* ---------------- Workload substrate ---------------- *)

type workload = {
  subject : Subject.t;
  floorplan : Floorplan.t;
  positions : Cals_util.Geom.point array;
}

let workload_of ~family ~seed ~inputs ~outputs ~size =
  let net = Gen.of_fuzz ~family ~seed ~inputs ~outputs ~size in
  Cals_logic.Network.sweep net;
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (max 1 (Subject.num_gates subject)) *. 5.0)
      ~utilization:0.45 ~aspect:1.0 ~geometry
  in
  let positions =
    Placement.place_subject subject ~floorplan ~rng:(Rng.create (seed + 1))
  in
  { subject; floorplan; positions }

(* ---------------- Bit-identity oracle ---------------- *)

let mapped_identical (a : Mapped.t) (b : Mapped.t) =
  a.Mapped.pi_names = b.Mapped.pi_names
  && a.Mapped.outputs = b.Mapped.outputs
  && Array.length a.Mapped.instances = Array.length b.Mapped.instances
  && Array.for_all2
       (fun (x : Mapped.instance) (y : Mapped.instance) ->
         x.Mapped.cell.Cals_cell.Cell.name = y.Mapped.cell.Cals_cell.Cell.name
         && x.Mapped.fanins = y.Mapped.fanins
         && x.Mapped.seed = y.Mapped.seed)
       a.Mapped.instances b.Mapped.instances

let cold_map w ~k =
  Reference_mapper.map w.subject ~library:lib ~positions:w.positions
    (Mapper.congestion_aware ~k)

(* One workload, every K of the paper's ladder: the warmed session's
   result must be bit-identical to the cold reference mapper — same
   netlist, same area, same stats — and, spot-checked, the same
   seeded-placement wirelength. *)
let check_sweep_identical ?(hpwl_ks = [ 0.0; 0.001; 0.1 ]) w =
  let session =
    Incremental.create ~subject:w.subject ~library:lib ~positions:w.positions ()
  in
  Incremental.warm session;
  List.iter
    (fun k ->
      let warm = Incremental.map session ~k in
      let cold = cold_map w ~k in
      if not (mapped_identical warm.Mapper.mapped cold.Mapper.mapped) then
        QCheck.Test.fail_reportf "K=%g: warm netlist differs from cold" k;
      if warm.Mapper.stats <> cold.Mapper.stats then
        QCheck.Test.fail_reportf
          "K=%g: stats differ (warm %d cells %.3f um2 %d matches, cold %d \
           cells %.3f um2 %d matches)"
          k warm.Mapper.stats.Mapper.cells warm.Mapper.stats.Mapper.cell_area
          warm.Mapper.stats.Mapper.matches_evaluated
          cold.Mapper.stats.Mapper.cells cold.Mapper.stats.Mapper.cell_area
          cold.Mapper.stats.Mapper.matches_evaluated;
      if List.mem k hpwl_ks then begin
        let hpwl (r : Mapper.result) =
          match
            Placement.place_mapped_seeded r.Mapper.mapped
              ~floorplan:w.floorplan
          with
          | exception Cals_place.Legalize.Overflow _ -> infinity
          | p -> p.Placement.hpwl
        in
        let hw = hpwl warm and hc = hpwl cold in
        if hw <> hc && not (hw <> hw && hc <> hc) then
          QCheck.Test.fail_reportf "K=%g: hpwl differs (warm %f, cold %f)" k hw
            hc
      end)
    Flow.default_k_schedule;
  let stats = Incremental.stats session in
  if stats.Incremental.hits = 0 then
    QCheck.Test.fail_reportf "no cache hits across %d K points"
      (List.length Flow.default_k_schedule);
  true

let prop_incremental_bit_identical =
  QCheck.Test.make ~count:12
    ~name:"incremental session == cold map at every K of the schedule"
    QCheck.(
      quad (int_range 0 10_000) (int_range 4 9) (int_range 2 6)
        (int_range 12 40))
    (fun (seed, inputs, outputs, size) ->
      let family = if seed land 1 = 0 then `Pla else `Multilevel in
      check_sweep_identical
        (workload_of ~family ~seed ~inputs ~outputs ~size))

(* Pinned regression seeds: tuples that once covered interesting shapes
   (single-tree subjects, heavy multi-fanout duplication, BUF chains).
   Deterministic, so they double as a fast smoke of the property above. *)
let test_regression_seeds () =
  List.iter
    (fun (family, seed, inputs, outputs, size) ->
      ignore
        (check_sweep_identical
           (workload_of ~family ~seed ~inputs ~outputs ~size)))
    [
      (`Pla, 3, 6, 3, 18);
      (`Pla, 42, 8, 6, 36);
      (`Multilevel, 7, 5, 4, 24);
      (`Multilevel, 101, 9, 2, 40);
      (`Pla, 2024, 4, 2, 12);
    ]

(* ---------------- Cache behavior ---------------- *)

(* The first map of an unwarmed session misses every tree and enumerates
   it into the session's table; every later map hits every tree, and a
   later [warm] enumerates nothing. *)
let test_cache_hit_rate () =
  let w = workload_of ~family:`Pla ~seed:11 ~inputs:8 ~outputs:6 ~size:30 in
  let session =
    Incremental.create ~subject:w.subject ~library:lib ~positions:w.positions ()
  in
  let ks = Flow.default_k_schedule in
  let n = List.length ks in
  ignore (Incremental.map session ~k:(List.hd ks));
  let s0 = Incremental.stats session in
  Alcotest.(check int) "the first map misses every tree" s0.Incremental.trees
    s0.Incremental.misses;
  Alcotest.(check int) "and hits none" 0 s0.Incremental.hits;
  Alcotest.(check int) "and caches every tree" s0.Incremental.trees
    (List.length (Incremental.cached session));
  List.iter (fun k -> ignore (Incremental.map session ~k)) (List.tl ks);
  let s = Incremental.stats session in
  Alcotest.(check int) "one map per K" n s.Incremental.maps;
  Alcotest.(check int) "every later map hits every tree"
    ((n - 1) * s.Incremental.trees) s.Incremental.hits;
  Alcotest.(check int) "and misses none" s0.Incremental.misses
    s.Incremental.misses;
  Incremental.warm session;
  let s1 = Incremental.stats session in
  Alcotest.(check int) "a later warm enumerates nothing" s.Incremental.misses
    s1.Incremental.misses

let test_warm_then_only_hits () =
  let w = workload_of ~family:`Multilevel ~seed:5 ~inputs:7 ~outputs:4 ~size:28 in
  let session =
    Incremental.create ~subject:w.subject ~library:lib ~positions:w.positions ()
  in
  Incremental.warm session;
  let s0 = Incremental.stats session in
  Alcotest.(check int) "warm missed every tree" s0.Incremental.trees
    s0.Incremental.misses;
  List.iter
    (fun k -> ignore (Incremental.map session ~k))
    [ 0.0; 0.001; 0.01; 1.0 ];
  let s = Incremental.stats session in
  Alcotest.(check int) "no post-warm misses" s0.Incremental.misses
    s.Incremental.misses;
  Alcotest.(check int) "post-warm lookups all hit" (4 * s.Incremental.trees)
    s.Incremental.hits

(* One unwarmed session mapped at every K of the ladder: the maps that
   fill the table and the ones that read it must all equal the cold
   mapper, and every tree is cached afterwards. *)
let test_unwarmed_fills_on_map () =
  let w = workload_of ~family:`Pla ~seed:42 ~inputs:8 ~outputs:6 ~size:36 in
  let session =
    Incremental.create ~subject:w.subject ~library:lib ~positions:w.positions ()
  in
  let ks = Array.of_list Flow.default_k_schedule in
  let results = Array.map (fun k -> Incremental.map session ~k) ks in
  Array.iteri
    (fun i (r : Mapper.result) ->
      let cold = cold_map w ~k:ks.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "K=%g netlist == cold" ks.(i))
        true
        (mapped_identical r.Mapper.mapped cold.Mapper.mapped);
      Alcotest.(check bool)
        (Printf.sprintf "K=%g stats == cold" ks.(i))
        true
        (r.Mapper.stats = cold.Mapper.stats))
    results;
  let s = Incremental.stats session in
  Alcotest.(check int) "every tree cached" s.Incremental.trees
    (List.length (Incremental.cached session))

let test_fingerprints_track_partition () =
  (* Different partition strategies carve different trees; their
     fingerprints must differ so a cache could never serve a Dagon tree
     to a PDP session (invalidation-by-keying). *)
  let w = workload_of ~family:`Pla ~seed:11 ~inputs:8 ~outputs:6 ~size:30 in
  let fingerprints strategy =
    let s =
      Incremental.create
        ~options:{ (Mapper.congestion_aware ~k:0.0) with Mapper.strategy }
        ~subject:w.subject ~library:lib ~positions:w.positions ()
    in
    Incremental.warm s;
    Incremental.cached s
  in
  let pdp = fingerprints Partition.Pdp in
  let dagon = fingerprints Partition.Dagon in
  Alcotest.(check bool) "strategies partition differently" true (pdp <> dagon);
  (* And per session the fingerprints are stable (pure in the inputs). *)
  let pdp' = fingerprints Partition.Pdp in
  Alcotest.(check bool) "fingerprints deterministic" true (pdp = pdp')

(* ---------------- Route-session differential ---------------- *)

let route_result_identical (a : Router.result) (b : Router.result) =
  a.Router.violations = b.Router.violations
  && a.Router.total_overflow = b.Router.total_overflow
  && a.Router.wirelength_um = b.Router.wirelength_um
  && a.Router.net_length_um = b.Router.net_length_um
  && Array.length a.Router.routes = Array.length b.Router.routes
  && Array.for_all2
       (fun (x : Router.route) (y : Router.route) ->
         x.Router.net = y.Router.net
         && x.Router.gends = y.Router.gends
         && x.Router.edges = y.Router.edges)
       a.Router.routes b.Router.routes

(* Warm-vs-cold routing over the paper's full K ladder: every K point is
   evaluated twice, once through a shared router session (the warm path
   the flow takes) and once without one; the routed results must be
   bit-identical and every warm result must satisfy the routing
   invariants from first principles. *)
let check_route_sweep_identical w =
  let session =
    Incremental.create ~subject:w.subject ~library:lib ~positions:w.positions ()
  in
  let rsession = Incremental.route_session session in
  List.iter
    (fun k ->
      let eval ?session ?route_session () =
        Flow.evaluate_k ?session ?route_session ~subject:w.subject
          ~library:lib ~floorplan:w.floorplan ~positions:w.positions ~k ()
      in
      let _, (_, _, warm) = eval ~session ~route_session:rsession () in
      let _, (_, _, cold) = eval () in
      match (warm, cold) with
      | None, None -> ()
      | Some rw, Some rc ->
        if not (route_result_identical rw rc) then
          QCheck.Test.fail_reportf "K=%g: warm routing differs from cold" k;
        (match Invariant.check_routing ~usage:true rw with
        | Ok () -> ()
        | Error detail ->
          QCheck.Test.fail_reportf "K=%g: warm routing invariant: %s" k detail)
      | _ ->
        QCheck.Test.fail_reportf "K=%g: routing presence differs warm/cold" k)
    Flow.default_k_schedule;
  let s = Router.Session.stats rsession in
  if s.Router.Session.route_calls = 0 then
    QCheck.Test.fail_reportf "route session saw no calls";
  true

let prop_route_session_bit_identical =
  QCheck.Test.make ~count:6
    ~name:"router session == cold route at every K of the schedule"
    QCheck.(
      quad (int_range 0 10_000) (int_range 4 8) (int_range 2 5)
        (int_range 12 30))
    (fun (seed, inputs, outputs, size) ->
      let family = if seed land 1 = 0 then `Pla else `Multilevel in
      check_route_sweep_identical
        (workload_of ~family ~seed ~inputs ~outputs ~size))

let test_route_session_regression_seeds () =
  List.iter
    (fun (family, seed, inputs, outputs, size) ->
      ignore
        (check_route_sweep_identical
           (workload_of ~family ~seed ~inputs ~outputs ~size)))
    [ (`Pla, 9, 6, 3, 18); (`Multilevel, 17, 7, 4, 26) ]

(* The warm K sweep re-routes the same mapped netlist whenever consecutive
   K points map identically, so a full-schedule sweep through one session
   must replay at least once — this is the speedup mechanism. A second
   pass over every routed point through the same session must then be
   pure replay: no net re-derived, every result equal to the first. *)
let test_route_session_hit_rate () =
  let w = workload_of ~family:`Pla ~seed:11 ~inputs:8 ~outputs:6 ~size:30 in
  let session =
    Incremental.create ~subject:w.subject ~library:lib ~positions:w.positions ()
  in
  let rsession = Incremental.route_session session in
  let routed =
    List.filter_map
      (fun k ->
        match
          Flow.evaluate_k ~session ~route_session:rsession ~subject:w.subject
            ~library:lib ~floorplan:w.floorplan ~positions:w.positions ~k ()
        with
        | _, (mapped, Some placement, Some routing) ->
          Some (mapped, placement, routing)
        | _ -> None)
      Flow.default_k_schedule
  in
  let s = Router.Session.stats rsession in
  Alcotest.(check bool)
    (Printf.sprintf "replays %d of %d calls" s.Router.Session.replays
       s.Router.Session.route_calls)
    true
    (s.Router.Session.replays > 0);
  List.iter
    (fun (mapped, placement, first) ->
      let again =
        Router.route_mapped ~session:rsession mapped ~floorplan:w.floorplan
          ~wire:(Cals_cell.Library.wire lib) ~placement
      in
      Alcotest.(check bool) "second pass == first pass" true
        (route_result_identical first again))
    routed;
  let s' = Router.Session.stats rsession in
  let passes = List.length routed in
  Alcotest.(check bool) "the sweep routed some point" true (passes > 0);
  Alcotest.(check int) "every second-pass call is a replay"
    (s.Router.Session.replays + passes)
    s'.Router.Session.replays;
  Alcotest.(check int) "the second pass re-derives no net"
    s.Router.Session.nets_rerouted s'.Router.Session.nets_rerouted

(* ---------------- Flow integration ---------------- *)

let outcome_signature (o : Flow.outcome) =
  ( List.map
      (fun (it : Flow.iteration) ->
        (it.Flow.k, it.Flow.cells, it.Flow.cell_area, it.Flow.hpwl_um,
         it.Flow.report))
      o.Flow.iterations,
    Option.map (fun (it : Flow.iteration) -> it.Flow.k) o.Flow.accepted )

let test_flow_incremental_identical_to_cold () =
  let w = workload_of ~family:`Pla ~seed:21 ~inputs:10 ~outputs:8 ~size:48 in
  let run session =
    Reference_flow.run ~session ~subject:w.subject ~library:lib
      ~floorplan:w.floorplan ~rng:(Rng.create 22) ()
  in
  let inc = run true and cold = run false in
  Alcotest.(check bool) "same outcome signature" true
    (outcome_signature inc = outcome_signature cold);
  match (inc.Flow.mapped, cold.Flow.mapped) with
  | Some a, Some b ->
    Alcotest.(check bool) "same shipped netlist" true (mapped_identical a b)
  | None, None -> ()
  | _ -> Alcotest.fail "mapped presence differs"

(* Regression for the hoisted equivalence-seed derivation: the stimulus
   seed is a pure function of K, so Full-checked runs are identical with
   the cache on or off, and repeated evaluation of one K point never
   drifts. Before the hoist, a reordered or cached mapping phase could
   have moved the RNG derivation relative to other stateful work. *)
let test_equiv_seed_pure_in_k () =
  List.iter
    (fun k ->
      Alcotest.(check int)
        (Printf.sprintf "seed stable at K=%g" k)
        (Flow.equiv_seed ~k) (Flow.equiv_seed ~k))
    Flow.default_k_schedule;
  Alcotest.(check bool) "distinct K, distinct stimulus" true
    (Flow.equiv_seed ~k:0.001 <> Flow.equiv_seed ~k:0.01)

let test_checked_runs_deterministic_across_cache_reuse () =
  let w = workload_of ~family:`Pla ~seed:33 ~inputs:9 ~outputs:7 ~size:40 in
  let run session =
    Reference_flow.run ~checks:Check.Full ~session ~subject:w.subject
      ~library:lib ~floorplan:w.floorplan ~rng:(Rng.create 34) ()
  in
  let a = run true and b = run false and c = run true in
  Alcotest.(check bool) "full-checked warm == cold" true
    (outcome_signature a = outcome_signature b);
  Alcotest.(check bool) "full-checked warm repeatable" true
    (outcome_signature a = outcome_signature c)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "incremental"
    [
      ( "bit-identity",
        [
          qc prop_incremental_bit_identical;
          Alcotest.test_case "pinned regression seeds" `Quick
            test_regression_seeds;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit rate over a sweep" `Quick test_cache_hit_rate;
          Alcotest.test_case "warm then only hits" `Quick
            test_warm_then_only_hits;
          Alcotest.test_case "unwarmed session fills on map" `Quick
            test_unwarmed_fills_on_map;
          Alcotest.test_case "fingerprints track the partition" `Quick
            test_fingerprints_track_partition;
        ] );
      ( "route-session",
        [
          qc prop_route_session_bit_identical;
          Alcotest.test_case "pinned route regression seeds" `Quick
            test_route_session_regression_seeds;
          Alcotest.test_case "replay rate over a sweep" `Quick
            test_route_session_hit_rate;
        ] );
      ( "flow",
        [
          Alcotest.test_case "incremental flow == cold flow" `Quick
            test_flow_incremental_identical_to_cold;
          Alcotest.test_case "equiv seed pure in K" `Quick
            test_equiv_seed_pure_in_k;
          Alcotest.test_case "checked runs immune to cache reuse" `Quick
            test_checked_runs_deterministic_across_cache_reuse;
        ] );
    ]
