(* The verification subsystem: equivalence oracle, invariant checkers,
   fuzz harness, and the flow's checks knob. *)

module Check = Cals_verify.Check
module Equiv = Cals_verify.Equiv
module Invariant = Cals_verify.Invariant
module Fuzz = Cals_verify.Fuzz
module Flow = Cals_core.Flow
module Reference_flow = Cals_reference.Reference_flow
module Mapper = Cals_core.Mapper
module Reference_mapper = Cals_reference.Reference_mapper
module Cover = Cals_core.Cover
module Partition = Cals_core.Partition
module Harness = Cals_core.Harness
module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Network = Cals_logic.Network
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Router = Cals_route.Router
module Rgrid = Cals_route.Rgrid
module Geom = Cals_util.Geom
module Rng = Cals_util.Rng

let lib = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry lib
let wire = Cals_cell.Library.wire lib

(* ---------------- Equivalence oracle ---------------- *)

let side ~label ~pis ~outs simulate =
  { Equiv.label; pi_names = pis; output_names = outs; simulate }

let test_equiv_identical_sides () =
  let pis = [| "a"; "b" |] and outs = [| "y" |] in
  let sim (v : int64 array) = [| Int64.logand v.(0) v.(1) |] in
  let a = side ~label:"left" ~pis ~outs sim in
  let b = side ~label:"right" ~pis ~outs sim in
  match Equiv.check ~rng:(Rng.create 1) a b with
  | Ok () -> ()
  | Error cex ->
    Alcotest.failf "identical sides differ: %s" (Equiv.counterexample_to_string cex)

let test_equiv_shrinks_to_relevant_pis () =
  (* y = a AND b vs y = a OR b, with two PIs the functions ignore. The
     shrunk counterexample must pin the irrelevant PIs to false and mark
     only (a, b) relevant. *)
  let pis = [| "a"; "b"; "junk0"; "junk1" |] and outs = [| "y" |] in
  let a = side ~label:"and" ~pis ~outs (fun v -> [| Int64.logand v.(0) v.(1) |]) in
  let b = side ~label:"or" ~pis ~outs (fun v -> [| Int64.logor v.(0) v.(1) |]) in
  match Equiv.check ~rng:(Rng.create 2) a b with
  | Ok () -> Alcotest.fail "AND vs OR must differ"
  | Error cex ->
    Alcotest.(check string) "differing output" "y" cex.Equiv.output;
    Alcotest.(check int) "two relevant PIs" 2 (Equiv.num_relevant cex);
    Alcotest.(check bool) "a relevant" true cex.Equiv.relevant.(0);
    Alcotest.(check bool) "b relevant" true cex.Equiv.relevant.(1);
    Alcotest.(check bool) "junk irrelevant" false
      (cex.Equiv.relevant.(2) || cex.Equiv.relevant.(3));
    Alcotest.(check bool) "junk canonicalized to false" false
      (cex.Equiv.assignment.(2) || cex.Equiv.assignment.(3));
    (* AND differs from OR exactly when a <> b. *)
    Alcotest.(check bool) "assignment is a real counterexample" true
      (cex.Equiv.assignment.(0) <> cex.Equiv.assignment.(1))

let test_equiv_structural_mismatch_raises () =
  let a = side ~label:"a" ~pis:[| "x" |] ~outs:[| "y" |] (fun v -> [| v.(0) |]) in
  let b = side ~label:"b" ~pis:[| "z" |] ~outs:[| "y" |] (fun v -> [| v.(0) |]) in
  match Equiv.check ~rng:(Rng.create 3) a b with
  | exception Invalid_argument _ -> ()
  | Ok () | Error _ -> Alcotest.fail "PI name mismatch must raise Invalid_argument"

let test_equiv_hides_const0 () =
  (* A subject using a constant gains a __const0 PI; the oracle must still
     compare it against a side that never had one. *)
  let b = Subject.builder () in
  let a = Subject.add_pi b "a" in
  let one = Subject.add_const b true in
  let y = Subject.add_nand b a one in
  Subject.set_output b "y" y;
  let subject = Subject.freeze b in
  Alcotest.(check int) "subject has the const PI" 2 (Subject.num_pis subject);
  let spec =
    side ~label:"spec" ~pis:[| "a" |] ~outs:[| "y" |] (fun v ->
        [| Int64.lognot v.(0) |])
  in
  match Equiv.check ~rng:(Rng.create 4) (Equiv.of_subject subject) spec with
  | Ok () -> ()
  | Error cex -> Alcotest.failf "const0 leak: %s" (Equiv.counterexample_to_string cex)

(* ---------------- Pipeline equivalence properties ---------------- *)

let k_points = [ 0.0; 0.01; 1.0 ]

(* optimize -> decompose -> map at every K point; everything must stay
   equivalent to the untouched original network. *)
let pipeline_equivalent seed =
  let family = if seed land 1 = 0 then `Pla else `Multilevel in
  let network =
    Cals_workload.Gen.of_fuzz ~family ~seed ~inputs:(4 + (seed mod 4))
      ~outputs:(2 + (seed mod 3))
      ~size:(10 + (seed mod 12))
  in
  let original = Network.copy network in
  Cals_logic.Optimize.script_area network;
  let subject = Cals_logic.Decompose.subject_of_network network in
  let ok l r =
    match Equiv.check ~rng:(Rng.create (seed + 100)) l r with
    | Ok () -> true
    | Error cex ->
      QCheck.Test.fail_reportf "seed %d: %s vs %s: %s" seed l.Equiv.label
        r.Equiv.label
        (Equiv.counterexample_to_string cex)
  in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.3 ~aspect:1.0 ~geometry
  in
  let positions =
    Placement.place_subject subject ~floorplan ~rng:(Rng.create (seed + 1))
  in
  ok (Equiv.of_network ~label:"original" original)
    (Equiv.of_network ~label:"optimized" network)
  && ok (Equiv.of_network ~label:"optimized" network)
       (Equiv.of_subject subject)
  && List.for_all
       (fun k ->
         let r =
           Reference_mapper.map subject ~library:lib ~positions (Mapper.congestion_aware ~k)
         in
         ok (Equiv.of_subject subject)
           (Equiv.of_mapped ~label:(Printf.sprintf "mapped@K=%g" k)
              r.Mapper.mapped))
       k_points

let prop_pipeline_equivalence =
  QCheck.Test.make ~name:"optimize/decompose/map preserve the function"
    ~count:8
    QCheck.(int_range 0 10_000)
    pipeline_equivalent

(* Seeds that covered past regressions (kept explicit so they always run). *)
let regression_seeds = [ 1; 7; 42; 1002; 31337 ]

let test_pipeline_regression_seeds () =
  List.iter
    (fun seed ->
      if not (pipeline_equivalent seed) then
        Alcotest.failf "regression seed %d" seed)
    regression_seeds

(* ---------------- Injected-bug demo ---------------- *)

(* Flip one instance's fanin order and the oracle must notice. Symmetric
   cells (NAND2, NOR2, ...) shrug a flip off, so search the netlist for an
   instance where the flip changes the function — the library's AOI21,
   OAI21 and MUX21 are asymmetric — and validate the counterexample the
   oracle hands back. *)
let test_injected_fanin_flip_caught () =
  let rng = Rng.create 9 in
  let net =
    Cals_workload.Gen.pla ~rng ~inputs:8 ~outputs:6 ~products:40 ~terms_lo:4
      ~terms_hi:12 ()
  in
  Cals_logic.Network.sweep net;
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.3 ~aspect:1.0 ~geometry
  in
  let positions = Placement.place_subject subject ~floorplan ~rng:(Rng.create 10) in
  let r = Reference_mapper.map subject ~library:lib ~positions Mapper.min_area in
  let mapped = r.Mapper.mapped in
  let flip i =
    let instances =
      Array.mapi
        (fun j (inst : Mapped.instance) ->
          if j = i then
            {
              inst with
              Mapped.fanins =
                Array.of_list (List.rev (Array.to_list inst.Mapped.fanins));
            }
          else inst)
        mapped.Mapped.instances
    in
    Mapped.make ~pi_names:mapped.Mapped.pi_names ~instances
      ~outputs:mapped.Mapped.outputs
  in
  let sound = Equiv.of_subject subject in
  let rec hunt i =
    if i >= Mapped.num_cells mapped then
      Alcotest.fail "no fanin flip changed the function (no asymmetric cells?)"
    else begin
      let inst = mapped.Mapped.instances.(i) in
      if Array.length inst.Mapped.fanins < 2 then hunt (i + 1)
      else begin
        let tampered = Equiv.of_mapped ~label:"tampered" (flip i) in
        match Equiv.check ~rng:(Rng.create (1000 + i)) sound tampered with
        | Ok () -> hunt (i + 1)
        | Error cex -> (cex, tampered, inst.Mapped.cell.Cals_cell.Cell.name)
      end
    end
  in
  let cex, tampered, cell_name = hunt 0 in
  (* The shrunk assignment must replay: both sides disagree on the named
     output under exactly this stimulus. *)
  let stim = Array.map (fun b -> if b then -1L else 0L) cex.Equiv.assignment in
  let out_index =
    let rec find i =
      if sound.Equiv.output_names.(i) = cex.Equiv.output then i else find (i + 1)
    in
    find 0
  in
  let bit0 v = Int64.logand v 1L <> 0L in
  Alcotest.(check bool)
    (Printf.sprintf "replay on flipped %s disagrees" cell_name)
    true
    (bit0 (sound.Equiv.simulate stim).(out_index)
    <> bit0 (tampered.Equiv.simulate stim).(out_index));
  Alcotest.(check bool) "expected/got recorded faithfully" true
    (cex.Equiv.expected = bit0 (sound.Equiv.simulate stim).(out_index)
    && cex.Equiv.got = bit0 (tampered.Equiv.simulate stim).(out_index));
  (* Shrinking is honest: flipping any relevant PI repairs the miter. *)
  Array.iteri
    (fun i relevant ->
      if relevant then begin
        let flipped = Array.copy cex.Equiv.assignment in
        flipped.(i) <- not flipped.(i);
        let stim = Array.map (fun b -> if b then -1L else 0L) flipped in
        let oa = sound.Equiv.simulate stim and ob = tampered.Equiv.simulate stim in
        let all_agree =
          Array.for_all2 (fun va vb -> bit0 va = bit0 vb) oa ob
        in
        Alcotest.(check bool)
          (Printf.sprintf "flipping relevant %s repairs the miter"
             cex.Equiv.pis.(i))
          true all_agree
      end)
    cex.Equiv.relevant;
  Alcotest.(check bool) "at least one relevant PI" true
    (Equiv.num_relevant cex >= 1)

(* ---------------- Cover legality ---------------- *)

let dead_gate_subject () =
  let b = Subject.builder () in
  let a = Subject.add_pi b "a" in
  let c = Subject.add_pi b "b" in
  let live = Subject.add_nand b a c in
  let dead = Subject.add_inv b c in
  Subject.set_output b "y" live;
  (Subject.freeze b, dead)

let test_cover_check_passes_on_real_map () =
  let rng = Rng.create 11 in
  let net = Cals_workload.Gen.pla ~rng ~inputs:6 ~outputs:4 ~products:20 () in
  let subject = Cals_logic.Decompose.subject_of_network net in
  let positions =
    Array.make (Subject.num_nodes subject) { Geom.x = 0.0; y = 0.0 }
  in
  (* ~verify:true raises on an illegal cover; a legal one maps as before. *)
  let r = Reference_mapper.map ~verify:true subject ~library:lib ~positions Mapper.min_area in
  Alcotest.(check bool) "cells produced" true (Mapped.num_cells r.Mapper.mapped > 0)

let test_cover_rejects_uncovered_live_gate () =
  let subject, dead = dead_gate_subject () in
  let positions =
    Array.make (Subject.num_nodes subject) { Geom.x = 0.0; y = 0.0 }
  in
  let partition =
    Partition.run Partition.Dagon subject ~positions ~distance:Geom.Manhattan
  in
  let cover =
    Cover.run
      (Reference_mapper.table subject ~library:lib ~partition)
      ~partition ~positions
      {
        Cover.k = 0.0;
        t = 0.0;
        distance = Geom.Manhattan;
        incremental_update = true;
        include_wire2 = true;
        transitive_wire = false;
      }
  in
  let extraction = Cover.extract cover in
  Alcotest.(check bool) "legal cover accepted" true
    (Result.is_ok (Cover.check_coverage cover extraction));
  (* Declare the dead inverter live after covering: now a "live" gate has
     no cover, which the checker must report. *)
  Alcotest.(check bool) "gate was dead" false partition.Partition.live.(dead);
  partition.Partition.live.(dead) <- true;
  match Cover.check_coverage cover extraction with
  | Ok () -> Alcotest.fail "uncovered live gate accepted"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "diagnosis names a gate: %s" msg)
      true
      (String.length msg > 0)

(* ---------------- Placement invariants ---------------- *)

let placed_example () =
  let rng = Rng.create 12 in
  let net = Cals_workload.Gen.pla ~rng ~inputs:8 ~outputs:6 ~products:30 () in
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.4 ~aspect:1.0 ~geometry
  in
  let positions = Placement.place_subject subject ~floorplan ~rng:(Rng.create 13) in
  let r = Reference_mapper.map subject ~library:lib ~positions Mapper.min_area in
  let mapped = r.Mapper.mapped in
  let pl = Placement.place_mapped_seeded mapped ~floorplan in
  (floorplan, mapped, pl)

let clone_placement (pl : Placement.mapped_placement) =
  {
    pl with
    Placement.cell_pos = Array.copy pl.Placement.cell_pos;
    row_fill = Array.copy pl.Placement.row_fill;
  }

let test_placement_checker_accepts_legalized () =
  let floorplan, mapped, pl = placed_example () in
  match Invariant.check_placement ~floorplan mapped pl with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "legal placement rejected: %s" msg

let test_placement_checker_rejects_tampering () =
  let floorplan, mapped, pl = placed_example () in
  let expect_error what tampered =
    match Invariant.check_placement ~floorplan mapped tampered with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  (* Off its row. *)
  let t1 = clone_placement pl in
  let p = t1.Placement.cell_pos.(0) in
  t1.Placement.cell_pos.(0) <- { p with Geom.y = p.Geom.y +. 0.3 };
  expect_error "off-row cell" t1;
  (* Off the site grid. *)
  let t2 = clone_placement pl in
  let p = t2.Placement.cell_pos.(0) in
  t2.Placement.cell_pos.(0) <-
    { p with Geom.x = p.Geom.x +. (floorplan.Floorplan.site_width /. 3.0) };
  expect_error "off-grid cell" t2;
  (* Overlap: move cell 1 onto cell 0's site interval (same row first). *)
  let t3 = clone_placement pl in
  t3.Placement.cell_pos.(1) <- t3.Placement.cell_pos.(0);
  expect_error "overlapping cells" t3;
  (* Corrupted fill frontier. *)
  let t4 = clone_placement pl in
  t4.Placement.row_fill.(0) <- t4.Placement.row_fill.(0) + 1;
  expect_error "corrupted row_fill" t4

(* ---------------- Routing invariants ---------------- *)

let routed_example () =
  let fp = Floorplan.of_rows ~num_rows:12 ~sites_per_row:120 ~geometry in
  let w = fp.Floorplan.die_width and h = fp.Floorplan.die_height in
  let pins =
    [|
      [
        { Geom.x = 0.05 *. w; y = 0.1 *. h };
        { Geom.x = 0.9 *. w; y = 0.85 *. h };
        { Geom.x = 0.1 *. w; y = 0.9 *. h };
      ];
      [ { Geom.x = 0.2 *. w; y = 0.2 *. h }; { Geom.x = 0.7 *. w; y = 0.25 *. h } ];
      [ { Geom.x = 0.5 *. w; y = 0.5 *. h } ];
    |]
  in
  (fp, Router.route (Router.Request.of_pins ~floorplan:fp ~wire pins))

let test_routing_checker_accepts_real_result () =
  let _, res = routed_example () in
  Alcotest.(check bool) "segments routed" true (res.Router.num_segments > 0);
  match Invariant.check_routing ~usage:true res with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "legal routing rejected: %s" msg

let test_routing_checker_rejects_handbuilt_broken_route () =
  (* A route whose path stops one gcell short of its endpoint. *)
  let fp = Floorplan.of_rows ~num_rows:12 ~sites_per_row:120 ~geometry in
  let grid = Rgrid.create ~floorplan:fp ~wire ~layers:3 () in
  Alcotest.(check bool) "grid is wide enough" true (grid.Rgrid.cols >= 3);
  let res =
    {
      Router.grid;
      violations = 0;
      total_overflow = 0.0;
      wirelength_um = grid.Rgrid.gcell_um;
      max_utilization = 0.0;
      num_nets = 1;
      num_segments = 1;
      net_length_um = [| grid.Rgrid.gcell_um |];
      routes =
        [|
          {
            Router.net = 0;
            gends = ((0, 0), (2, 0));
            edges = [ Rgrid.H (0, 0) ];
          };
        |];
      (* Net 0's gcells (0, 0) and (2, 0), as ids [c * rows + r]. *)
      gcell_start = [| 0; 2 |];
      net_gcells = [| 0; 2 * grid.Rgrid.rows |];
    }
  in
  (match Invariant.check_routing ~usage:false res with
  | Ok () -> Alcotest.fail "disconnected segment accepted"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "diagnosis mentions the endpoints: %s" msg)
      true
      (String.length msg > 0));
  (* An empty path between distinct endpoints is just as illegal. *)
  let res_empty =
    {
      res with
      Router.routes = [| { Router.net = 0; gends = ((0, 0), (2, 0)); edges = [] } |];
      wirelength_um = 0.0;
      net_length_um = [| 0.0 |];
    }
  in
  match Invariant.check_routing ~usage:false res_empty with
  | Ok () -> Alcotest.fail "empty path accepted"
  | Error _ -> ()

let test_routing_checker_rejects_truncated_route () =
  let _, res = routed_example () in
  (* Drop the first edge of the longest route: connectivity must break. *)
  let longest = ref (-1) and best = ref 0 in
  Array.iteri
    (fun i (rt : Router.route) ->
      let n = List.length rt.Router.edges in
      if n > !best then begin
        best := n;
        longest := i
      end)
    res.Router.routes;
  Alcotest.(check bool) "found a multi-edge route" true (!best >= 2);
  let routes =
    Array.mapi
      (fun i (rt : Router.route) ->
        if i = !longest then { rt with Router.edges = List.tl rt.Router.edges }
        else rt)
      res.Router.routes
  in
  match Invariant.check_routing ~usage:false { res with Router.routes } with
  | Ok () -> Alcotest.fail "truncated route accepted"
  | Error _ -> ()

let test_routing_checker_rejects_usage_tampering () =
  let _, res = routed_example () in
  (* Usage the routes cannot explain. *)
  let g = res.Router.grid in
  g.Rgrid.husage.(0) <- g.Rgrid.husage.(0) +. 1.0;
  (match Invariant.check_routing ~usage:true res with
  | Ok () -> Alcotest.fail "phantom usage accepted"
  | Error _ -> ());
  (* Fresh result, corrupted per-net length. *)
  let _, res = routed_example () in
  res.Router.net_length_um.(0) <- res.Router.net_length_um.(0) +. 7.0;
  match Invariant.check_routing ~usage:true res with
  | Ok () -> Alcotest.fail "corrupted net length accepted"
  | Error _ -> ()

(* ---------------- Fuzz harness ---------------- *)

let test_fuzz_all_pass () =
  let checked = ref 0 in
  let outcome =
    Fuzz.run ~iterations:6 ~seed:5
      ~check:(fun _ ->
        incr checked;
        Ok ())
      ()
  in
  Alcotest.(check int) "all iterations ran" 6 outcome.Fuzz.iterations;
  Alcotest.(check int) "callback per iteration" 6 !checked;
  Alcotest.(check bool) "no failure" true (outcome.Fuzz.failure = None)

let test_fuzz_shrinks_to_minimum () =
  (* Synthetic bug: fails iff inputs >= 6 and size >= 20. Greedy shrinking
     must land exactly on the boundary (6, 20) with everything else at its
     floor. *)
  let check (p : Fuzz.params) =
    if p.Fuzz.inputs >= 6 && p.Fuzz.size >= 20 then
      Error ("synthetic", "inputs >= 6 && size >= 20")
    else Ok ()
  in
  let outcome = Fuzz.run ~iterations:50 ~seed:3 ~check () in
  match outcome.Fuzz.failure with
  | None -> Alcotest.fail "the synthetic bug was never sampled"
  | Some f ->
    Alcotest.(check int) "inputs shrunk to the boundary" 6 f.Fuzz.params.Fuzz.inputs;
    Alcotest.(check int) "size shrunk to the boundary" 20 f.Fuzz.params.Fuzz.size;
    Alcotest.(check int) "outputs shrunk to the floor" 2
      f.Fuzz.params.Fuzz.outputs;
    Alcotest.(check string) "stage preserved" "synthetic" f.Fuzz.stage;
    Alcotest.(check bool) "shrinking did some work" true (f.Fuzz.shrink_steps > 0)

let test_fuzz_reproducer_roundtrip () =
  let failure =
    {
      Fuzz.params =
        { Fuzz.seed = 777; family = Fuzz.Multilevel; inputs = 6; outputs = 3; size = 21 };
      stage = "route";
      detail = "multi\nline detail";
      shrink_steps = 4;
    }
  in
  let path = Filename.temp_file "cals_fuzz" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Fuzz.write_reproducer ~path failure;
  let p = Fuzz.read_reproducer path in
  Alcotest.(check bool) "params survive the round trip" true
    (p = failure.Fuzz.params)

let test_fuzz_harness_end_to_end () =
  (* Three tiny workloads through the real flow with Full checks. *)
  let outcome =
    Fuzz.run ~iterations:3 ~seed:1
      ~check:(fun p -> Harness.check_params ~level:Check.Full p)
      ()
  in
  match outcome.Fuzz.failure with
  | None -> Alcotest.(check int) "three workloads" 3 outcome.Fuzz.iterations
  | Some f ->
    Alcotest.failf "flow failed verification on %s [%s]: %s"
      (Fuzz.params_to_string f.Fuzz.params)
      f.Fuzz.stage f.Fuzz.detail

(* An odd fuzz seed runs the congested configuration (two layers, 85 %
   utilization): the search certifies points there, and the harness must
   re-route each of them and find the certificate's bound honoured. *)
let test_fuzz_harness_certificate_fires () =
  let module Metrics = Cals_telemetry.Metrics in
  let certified () =
    List.fold_left
      (fun acc (v : Metrics.counter_value) ->
        if v.Metrics.c_name = "estimate_verdict_unroutable" then
          v.Metrics.c_value
        else acc)
      0 (Metrics.snapshot ()).Metrics.counters
  in
  Cals_telemetry.Probe.enable ();
  Fun.protect ~finally:Cals_telemetry.Probe.disable @@ fun () ->
  let before = certified () in
  let p =
    { Fuzz.seed = 1; family = Fuzz.Pla; inputs = 8; outputs = 4; size = 30 }
  in
  (match Harness.check_params ~level:Check.Full p with
  | Ok () -> ()
  | Error (stage, detail) -> Alcotest.failf "[%s] %s" stage detail);
  Alcotest.(check bool) "some point was certified and re-routed" true
    (certified () > before)

(* ---------------- Flow with checks on ---------------- *)

let small_circuit seed =
  let rng = Rng.create seed in
  let net =
    Cals_workload.Gen.pla ~rng ~inputs:10 ~outputs:10 ~products:60 ~terms_lo:6
      ~terms_hi:16 ()
  in
  Cals_logic.Network.sweep net;
  net

let test_flow_full_checks_clean () =
  let net = small_circuit 21 in
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.3 ~aspect:1.0 ~geometry
  in
  let checked =
    Reference_flow.run ~checks:Check.Full ~subject ~library:lib ~floorplan
      ~rng:(Rng.create 22) ()
  in
  let plain =
    Reference_flow.run ~checks:Check.Off ~subject ~library:lib ~floorplan
      ~rng:(Rng.create 22) ()
  in
  Alcotest.(check bool) "accepted under Full checks" true
    (checked.Flow.accepted <> None);
  (* Checks observe; they must not perturb the outcome. *)
  Alcotest.(check (option (float 0.0)))
    "same accepted K as an unchecked run"
    (Option.map (fun it -> it.Flow.k) plain.Flow.accepted)
    (Option.map (fun it -> it.Flow.k) checked.Flow.accepted);
  List.iter2
    (fun (a : Flow.iteration) (b : Flow.iteration) ->
      Alcotest.(check int) "cells" a.Flow.cells b.Flow.cells;
      Alcotest.(check (float 0.0)) "hpwl" a.Flow.hpwl_um b.Flow.hpwl_um)
    plain.Flow.iterations checked.Flow.iterations

(* Three-way differential under Full checks: the linear walk with cold
   re-mapping and routing, the same walk through one incremental session,
   and the adaptive search must agree on the shipped netlist instance for
   instance. The two walks must also agree on every recorded figure; the
   adaptive search, which visits other points, on the accepted one. *)
let test_checked_three_way_differential () =
  let net = Cals_workload.Presets.spla_like ~scale:0.04 ~seed:19 () in
  Cals_logic.Network.sweep net;
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.6 ~aspect:1.0 ~geometry
  in
  let cold =
    Reference_flow.run ~checks:Check.Full ~session:false ~subject ~library:lib
      ~floorplan ~rng:(Rng.create 20) ()
  in
  let warm =
    Reference_flow.run ~checks:Check.Full ~subject ~library:lib ~floorplan
      ~rng:(Rng.create 20) ()
  in
  let adaptive, _ =
    Flow.run_adaptive ~checks:Check.Full ~subject ~library:lib ~floorplan
      ~rng:(Rng.create 20) ()
  in
  let signature (it : Flow.iteration) =
    (it.Flow.k, it.Flow.cells, it.Flow.cell_area, it.Flow.hpwl_um,
     it.Flow.report)
  in
  let check_pair label ~records a b =
    if records then
      Alcotest.(check bool) (label ^ ": same iteration records") true
        (List.map signature a.Flow.iterations
        = List.map signature b.Flow.iterations);
    Alcotest.(check bool) (label ^ ": same accepted iteration") true
      (Option.map signature a.Flow.accepted
      = Option.map signature b.Flow.accepted);
    match (a.Flow.mapped, b.Flow.mapped) with
    | Some x, Some y ->
      Alcotest.(check bool) (label ^ ": same shipped netlist") true
        (x.Mapped.pi_names = y.Mapped.pi_names
        && x.Mapped.outputs = y.Mapped.outputs
        && Array.length x.Mapped.instances = Array.length y.Mapped.instances
        && Array.for_all2
             (fun (i : Mapped.instance) (j : Mapped.instance) ->
               i.Mapped.cell.Cals_cell.Cell.name
               = j.Mapped.cell.Cals_cell.Cell.name
               && i.Mapped.fanins = j.Mapped.fanins
               && i.Mapped.seed = j.Mapped.seed)
             x.Mapped.instances y.Mapped.instances)
    | None, None -> ()
    | _ -> Alcotest.failf "%s: mapped presence differs" label
  in
  check_pair "cold vs incremental" ~records:true cold warm;
  check_pair "cold vs adaptive" ~records:false cold adaptive

(* ---------------- Check levels ---------------- *)

let test_check_level_parsing () =
  List.iter
    (fun (s, expect) ->
      match Check.level_of_string s with
      | Ok l -> Alcotest.(check string) s expect (Check.level_to_string l)
      | Error e -> Alcotest.failf "%s rejected: %s" s e)
    [ ("off", "off"); ("Cheap", "cheap"); ("FULL", "full") ];
  Alcotest.(check bool) "garbage rejected" true
    (Result.is_error (Check.level_of_string "sometimes"));
  Alcotest.(check int) "off runs no rounds" 0 (Check.rounds Check.Off);
  Alcotest.(check bool) "full outworks cheap" true
    (Check.rounds Check.Full > Check.rounds Check.Cheap)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "verify"
    [
      ( "equiv",
        [
          Alcotest.test_case "identical sides" `Quick test_equiv_identical_sides;
          Alcotest.test_case "shrinks to relevant PIs" `Quick
            test_equiv_shrinks_to_relevant_pis;
          Alcotest.test_case "structural mismatch raises" `Quick
            test_equiv_structural_mismatch_raises;
          Alcotest.test_case "const0 hidden" `Quick test_equiv_hides_const0;
          Alcotest.test_case "injected fanin flip caught" `Quick
            test_injected_fanin_flip_caught;
        ] );
      ( "pipeline",
        [
          qc prop_pipeline_equivalence;
          Alcotest.test_case "regression seeds" `Quick
            test_pipeline_regression_seeds;
        ] );
      ( "cover",
        [
          Alcotest.test_case "passes on a real map" `Quick
            test_cover_check_passes_on_real_map;
          Alcotest.test_case "rejects uncovered live gate" `Quick
            test_cover_rejects_uncovered_live_gate;
        ] );
      ( "placement",
        [
          Alcotest.test_case "accepts legalized" `Quick
            test_placement_checker_accepts_legalized;
          Alcotest.test_case "rejects tampering" `Quick
            test_placement_checker_rejects_tampering;
        ] );
      ( "routing",
        [
          Alcotest.test_case "accepts real result" `Quick
            test_routing_checker_accepts_real_result;
          Alcotest.test_case "rejects hand-built broken route" `Quick
            test_routing_checker_rejects_handbuilt_broken_route;
          Alcotest.test_case "rejects truncated route" `Quick
            test_routing_checker_rejects_truncated_route;
          Alcotest.test_case "rejects usage tampering" `Quick
            test_routing_checker_rejects_usage_tampering;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "all pass" `Quick test_fuzz_all_pass;
          Alcotest.test_case "shrinks to minimum" `Quick
            test_fuzz_shrinks_to_minimum;
          Alcotest.test_case "reproducer round trip" `Quick
            test_fuzz_reproducer_roundtrip;
          Alcotest.test_case "harness end to end" `Slow
            test_fuzz_harness_end_to_end;
          Alcotest.test_case "congested seed re-routes certified points"
            `Quick test_fuzz_harness_certificate_fires;
        ] );
      ( "flow",
        [
          Alcotest.test_case "full checks clean" `Quick
            test_flow_full_checks_clean;
          Alcotest.test_case "checked three-way differential" `Quick
            test_checked_three_way_differential;
          Alcotest.test_case "level parsing" `Quick test_check_level_parsing;
        ] );
    ]
