module Sta = Cals_sta.Sta
module Mapped = Cals_netlist.Mapped
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Geom = Cals_util.Geom
module Rng = Cals_util.Rng
module Cell = Cals_cell.Cell

let lib = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry lib
let wire = Cals_cell.Library.wire lib
let inv_cell = Cals_cell.Library.find lib "INV"
let nand2_cell = Cals_cell.Library.find lib "NAND2"
let fp = Floorplan.of_rows ~num_rows:10 ~sites_per_row:100 ~geometry

(* A chain of n inverters after a NAND2. *)
let chain_mapped n =
  let instances =
    Array.init (n + 1) (fun i ->
        if i = 0 then
          { Mapped.cell = nand2_cell; fanins = [| Mapped.Of_pi 0; Mapped.Of_pi 1 |];
            seed = Geom.point 5.0 5.0 }
        else
          { Mapped.cell = inv_cell; fanins = [| Mapped.Of_inst (i - 1) |];
            seed = Geom.point (5.0 +. float_of_int i) 5.0 })
  in
  Mapped.make ~pi_names:[| "a"; "b" |] ~instances
    ~outputs:[| ("f", Mapped.Of_inst n) |]

let place m = Placement.place_mapped_seeded m ~floorplan:fp

let test_longer_chain_slower () =
  let m3 = chain_mapped 3 and m9 = chain_mapped 9 in
  let r3 = Sta.analyze m3 ~wire ~placement:(place m3) in
  let r9 = Sta.analyze m9 ~wire ~placement:(place m9) in
  Alcotest.(check bool)
    (Printf.sprintf "9-chain %.3f > 3-chain %.3f"
       r9.Sta.critical.Sta.arrival_ns r3.Sta.critical.Sta.arrival_ns)
    true
    (r9.Sta.critical.Sta.arrival_ns > r3.Sta.critical.Sta.arrival_ns)

let test_arrival_positive_and_bounded () =
  let m = chain_mapped 5 in
  let r = Sta.analyze m ~wire ~placement:(place m) in
  Alcotest.(check bool) "positive" true (r.Sta.critical.Sta.arrival_ns > 0.0);
  (* All endpoints at most the critical. *)
  Array.iter
    (fun e ->
      if e.Sta.arrival_ns > r.Sta.critical.Sta.arrival_ns +. 1e-9 then
        Alcotest.fail "endpoint exceeds critical")
    r.Sta.endpoints

let test_critical_path_monotone () =
  let m = chain_mapped 6 in
  let r = Sta.analyze m ~wire ~placement:(place m) in
  let arrivals = List.map snd r.Sta.critical_path in
  let rec ok = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-9 && ok rest
    | [ _ ] | [] -> true
  in
  Alcotest.(check bool) "monotone along path" true (ok arrivals);
  Alcotest.(check int) "path has cells + endpoints" (6 + 1 + 2)
    (List.length r.Sta.critical_path)

let test_critical_endpoints_named () =
  let m = chain_mapped 2 in
  let r = Sta.analyze m ~wire ~placement:(place m) in
  Alcotest.(check string) "po" "f" r.Sta.critical.Sta.po;
  Alcotest.(check bool) "pi is a or b" true
    (r.Sta.critical.Sta.through_pi = "a" || r.Sta.critical.Sta.through_pi = "b");
  let s = Sta.endpoint_to_string r.Sta.critical in
  Alcotest.(check bool) "render" true (String.length s > 0)

let test_wire_length_increases_delay () =
  (* Same netlist, but one placement stretches the wires. *)
  let m = chain_mapped 4 in
  let near = place m in
  let far =
    {
      near with
      Placement.cell_pos =
        Array.mapi
          (fun i p ->
            if i mod 2 = 0 then p
            else Geom.point (p.Geom.x +. 40.0) (p.Geom.y +. 30.0))
          near.Placement.cell_pos;
    }
  in
  let r_near = Sta.analyze m ~wire ~placement:near in
  let r_far = Sta.analyze m ~wire ~placement:far in
  Alcotest.(check bool)
    (Printf.sprintf "far %.3f > near %.3f" r_far.Sta.critical.Sta.arrival_ns
       r_near.Sta.critical.Sta.arrival_ns)
    true
    (r_far.Sta.critical.Sta.arrival_ns > r_near.Sta.critical.Sta.arrival_ns)

let test_routed_lengths_override () =
  let m = chain_mapped 4 in
  let pl = place m in
  let nets = Array.length pl.Placement.nets.Mapped.first - 1 in
  (* Pretend every net meanders 500 um. *)
  let lengths = Array.make nets 500.0 in
  let r0 = Sta.analyze m ~wire ~placement:pl in
  let r1 = Sta.analyze ~net_length_um:lengths m ~wire ~placement:pl in
  Alcotest.(check bool) "meandering slows the path" true
    (r1.Sta.critical.Sta.arrival_ns > r0.Sta.critical.Sta.arrival_ns)

let test_po_arrival_from_pi () =
  (* f = NAND(a, INV(b)): path from b goes through one more stage. *)
  let instances =
    [|
      { Mapped.cell = inv_cell; fanins = [| Mapped.Of_pi 1 |]; seed = Geom.point 3.0 3.0 };
      { Mapped.cell = nand2_cell; fanins = [| Mapped.Of_pi 0; Mapped.Of_inst 0 |];
        seed = Geom.point 6.0 3.0 };
    |]
  in
  let m =
    Mapped.make ~pi_names:[| "a"; "b" |] ~instances
      ~outputs:[| ("f", Mapped.Of_inst 1) |]
  in
  let pl = place m in
  let from_a = Sta.po_arrival_from_pi m ~wire ~placement:pl ~pi:"a" ~po:"f" in
  let from_b = Sta.po_arrival_from_pi m ~wire ~placement:pl ~pi:"b" ~po:"f" in
  (match (from_a, from_b) with
  | Some ta, Some tb ->
    Alcotest.(check bool) (Printf.sprintf "b path %.3f > a path %.3f" tb ta) true (tb > ta)
  | _ -> Alcotest.fail "paths exist");
  Alcotest.(check bool) "missing pi" true
    (Sta.po_arrival_from_pi m ~wire ~placement:pl ~pi:"zz" ~po:"f" = None)

let test_full_analysis_on_mapped_circuit () =
  (* End-to-end sanity on a generated circuit. *)
  let rng = Rng.create 55 in
  let net =
    Cals_workload.Gen.pla ~rng ~inputs:8 ~outputs:6 ~products:24 ~terms_lo:4
      ~terms_hi:8 ()
  in
  Cals_logic.Network.sweep net;
  let subject = Cals_logic.Decompose.subject_of_network net in
  let fp2 =
    Floorplan.for_area
      ~core_area:(float_of_int (Cals_netlist.Subject.num_gates subject) *. 5.0)
      ~utilization:0.5 ~aspect:1.0 ~geometry
  in
  let positions = Placement.place_subject subject ~floorplan:fp2 ~rng:(Rng.create 56) in
  let r = Cals_reference.Reference_mapper.map subject ~library:lib ~positions Cals_core.Mapper.min_area in
  let mapped = r.Cals_core.Mapper.mapped in
  let pl = Placement.place_mapped_seeded mapped ~floorplan:fp2 in
  let report = Sta.analyze mapped ~wire ~placement:pl in
  Alcotest.(check int) "endpoint per output" 6 (Array.length report.Sta.endpoints);
  Alcotest.(check bool) "critical positive" true
    (report.Sta.critical.Sta.arrival_ns > 0.0);
  Alcotest.(check bool) "net cap positive" true (report.Sta.total_net_cap_pf > 0.0)

let test_delay_model_drive_matters () =
  (* Stronger driver (lower kohm) is faster at equal load. *)
  let d_weak = Cell.delay_ns inv_cell ~load_pf:0.1 in
  let buf = Cals_cell.Library.find lib "BUF" in
  let d_strong = Cell.delay_ns buf ~load_pf:0.1 in
  (* BUF has lower drive resistance in the library. *)
  Alcotest.(check bool) "resistance ordering encoded" true
    (buf.Cell.drive_kohm < inv_cell.Cell.drive_kohm);
  Alcotest.(check bool) "slope comparison" true
    (d_strong -. buf.Cell.intrinsic_ns < d_weak -. inv_cell.Cell.intrinsic_ns)

(* Timing-driven covering differential, over the whole golden corpus:
   with the fitted default weight, the post-route critical path of the
   accepted K must be no worse than the T=0 baseline on every design —
   the Table 3/5 claim as an executable inequality. The fixture recipe
   (utilization, placement seed) matches test_golden, so the T=0 side of
   this differential is the corpus the golden snapshots pin. *)
let golden_dir =
  Option.value (Sys.getenv_opt "CALS_GOLDEN_DIR") ~default:"golden"

let golden_designs =
  [ "pla_shared_08"; "pla_wide_10"; "ml_control_10"; "ml_deep_08";
    "pla_small_06" ]

let test_timing_no_worse_on_golden_corpus () =
  List.iter
    (fun name ->
      let net =
        Result.get_ok (Cals_logic.Blif.load (Filename.concat golden_dir (name ^ ".blif")))
      in
      Cals_logic.Network.sweep net;
      let subject = Cals_logic.Decompose.subject_of_network net in
      let floorplan =
        Floorplan.for_area
          ~core_area:
            (float_of_int (Cals_netlist.Subject.num_gates subject) *. 5.0)
          ~utilization:0.45 ~aspect:1.0 ~geometry
      in
      let crit ~t =
        let outcome =
          Cals_reference.Reference_flow.run ~t ~subject ~library:lib ~floorplan
            ~rng:(Rng.create 42) ()
        in
        match
          ( outcome.Cals_core.Flow.accepted,
            outcome.Cals_core.Flow.mapped,
            outcome.Cals_core.Flow.placement,
            outcome.Cals_core.Flow.routing )
        with
        | Some it, Some mapped, Some placement, Some routing ->
          let report =
            Sta.analyze
              ~net_length_um:routing.Cals_route.Router.net_length_um mapped
              ~wire ~placement
          in
          (it.Cals_core.Flow.k, report.Sta.critical.Sta.arrival_ns)
        | _ -> Alcotest.failf "%s: flow did not accept a routed K (t=%g)" name t
      in
      let k0, baseline = crit ~t:0.0 in
      let k1, timed = crit ~t:Cals_core.Mapper.default_timing_weight in
      Alcotest.(check bool)
        (Printf.sprintf "%s: post-route critical path %.4f ns is positive"
           name timed)
        true (timed > 0.0);
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: T>0 critical path %.4f ns (K=%g) <= T=0 baseline %.4f ns \
            (K=%g)"
           name timed k1 baseline k0)
        true
        (timed <= baseline +. 1e-9))
    golden_designs

let () =
  Alcotest.run "sta"
    [
      ( "sta",
        [
          Alcotest.test_case "longer chain slower" `Quick test_longer_chain_slower;
          Alcotest.test_case "arrivals bounded" `Quick test_arrival_positive_and_bounded;
          Alcotest.test_case "path monotone" `Quick test_critical_path_monotone;
          Alcotest.test_case "endpoints named" `Quick test_critical_endpoints_named;
          Alcotest.test_case "wirelength slows" `Quick test_wire_length_increases_delay;
          Alcotest.test_case "routed lengths" `Quick test_routed_lengths_override;
          Alcotest.test_case "per-pi arrival" `Quick test_po_arrival_from_pi;
          Alcotest.test_case "full circuit" `Quick test_full_analysis_on_mapped_circuit;
          Alcotest.test_case "drive model" `Quick test_delay_model_drive_matters;
          Alcotest.test_case "timing no worse on golden corpus" `Quick
            test_timing_no_worse_on_golden_corpus;
        ] );
    ]
