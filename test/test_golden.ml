(* Golden-corpus differential suite: small BLIF designs checked into
   test/golden/ with expected per-K metrics snapshots. Any mapper,
   placer or router change that shifts QoR fails loudly with a readable
   per-line diff; the incremental engine is additionally diffed against
   cold-start evaluation at every K point of every design.

   Regenerate the snapshots (after an intentional QoR change) with:

     CALS_GOLDEN_DIR=$PWD/test/golden CALS_GOLDEN_UPDATE=1 \
       dune exec test/test_golden.exe *)

module Flow = Cals_core.Flow
module Incremental = Cals_core.Incremental
module Subject = Cals_netlist.Subject
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Congestion = Cals_route.Congestion
module Router = Cals_route.Router
module Rgrid = Cals_route.Rgrid
module Fnv = Cals_util.Tables.Fnv64
module Gen = Cals_workload.Gen
module Rng = Cals_util.Rng
module Sta = Cals_sta.Sta

let lib = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry lib
let wire = Cals_cell.Library.wire lib

let golden_dir =
  Option.value (Sys.getenv_opt "CALS_GOLDEN_DIR") ~default:"golden"

let update_mode = Sys.getenv_opt "CALS_GOLDEN_UPDATE" <> None

(* The corpus: deterministic generators stand in for the IWLS93 originals
   (not redistributable); the BLIF files on disk are the authority once
   generated. *)
let designs =
  [
    ( "pla_shared_08",
      fun () ->
        Gen.pla ~rng:(Rng.create 301) ~inputs:8 ~outputs:6 ~products:40 () );
    ( "pla_wide_10",
      fun () ->
        Gen.pla ~rng:(Rng.create 302) ~inputs:10 ~outputs:8 ~products:60
          ~terms_lo:5 ~terms_hi:14 () );
    ( "ml_control_10",
      fun () ->
        Gen.multilevel ~rng:(Rng.create 303) ~inputs:10 ~outputs:6
          ~internal_nodes:40 () );
    ( "ml_deep_08",
      fun () ->
        Gen.multilevel ~rng:(Rng.create 304) ~inputs:8 ~outputs:8
          ~internal_nodes:30 () );
    ( "pla_small_06",
      fun () ->
        Gen.pla ~rng:(Rng.create 305) ~inputs:6 ~outputs:4 ~products:24 () );
  ]

let k_points = [ 0.0; 0.0005; 0.001; 0.005; 0.01; 0.1 ]

let blif_path name = Filename.concat golden_dir (name ^ ".blif")
let expected_path name = Filename.concat golden_dir (name ^ ".expected")

let load_network name make =
  let path = blif_path name in
  if update_mode && not (Sys.file_exists path) then
    Cals_util.Fsutil.write_file path (Cals_logic.Blif.print ~model:name (make ()));
  Result.get_ok (Cals_logic.Blif.load path)

let fmt_iteration (it : Flow.iteration) =
  if it.Flow.hpwl_um = infinity then
    Printf.sprintf "K=%g DNF (does not legalize)" it.Flow.k
  else
    Printf.sprintf
      "K=%g cells=%d area=%.4f util=%.6f hpwl=%.4f viol=%d ovfl=%.4f wl=%.4f"
      it.Flow.k it.Flow.cells it.Flow.cell_area it.Flow.utilization
      it.Flow.hpwl_um it.Flow.report.Congestion.violations
      it.Flow.report.Congestion.total_overflow
      it.Flow.report.Congestion.wirelength_um

(* FNV-64 digest of a routed snapshot: every segment's net, endpoint
   gcells and committed edge walk, in commit order. Two results with the
   same digest routed the same paths, so the golden lines pin the routes
   themselves, not just their aggregate metrics. *)
let route_digest = function
  | None -> "-"
  | Some (r : Router.result) ->
    let h = ref (Fnv.int Fnv.empty (Array.length r.Router.routes)) in
    Array.iter
      (fun (rt : Router.route) ->
        let (c1, r1), (c2, r2) = rt.Router.gends in
        h := Fnv.int !h rt.Router.net;
        h := Fnv.int !h c1;
        h := Fnv.int !h r1;
        h := Fnv.int !h c2;
        h := Fnv.int !h r2;
        List.iter
          (fun e ->
            match e with
            | Rgrid.H (c, r) -> h := Fnv.int (Fnv.int (Fnv.int !h 0) c) r
            | Rgrid.V (c, r) -> h := Fnv.int (Fnv.int (Fnv.int !h 1) c) r)
          rt.Router.edges)
      r.Router.routes;
    Printf.sprintf "%016Lx" !h

(* Per-K metrics of one design, computed twice — through an incremental
   session (mapping and routing both warm) and cold — and required to
   agree line for line, routed paths included, before the snapshot
   comparison even starts. *)
let actual_lines name net =
  Cals_logic.Network.sweep net;
  let subject = Cals_logic.Decompose.subject_of_network net in
  let floorplan =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.45 ~aspect:1.0 ~geometry
  in
  let positions =
    Placement.place_subject subject ~floorplan ~rng:(Rng.create 42)
  in
  let session = Incremental.create ~subject ~library:lib ~positions () in
  Incremental.warm session;
  let header =
    Printf.sprintf "design=%s gates=%d pis=%d pos=%d" name
      (Subject.num_gates subject) (Subject.num_pis subject)
      (Array.length subject.Subject.outputs)
  in
  let route_session = Incremental.route_session session in
  let lines =
    List.map
      (fun k ->
        let eval ?session ?route_session () =
          let it, (mapped, placement, routing) =
            Flow.evaluate_k ?session ?route_session ~subject ~library:lib
              ~floorplan ~positions ~k ()
          in
          (* Post-route critical path of this K point — the timing
             digest the T>0-vs-T=0 differential in test_sta leans on.
             "-" when the point never routed (DNF). *)
          let crit =
            match (placement, routing) with
            | Some placement, Some routing ->
              let report =
                Sta.analyze ~net_length_um:routing.Router.net_length_um
                  mapped ~wire ~placement
              in
              Printf.sprintf "%.4f" report.Sta.critical.Sta.arrival_ns
            | _ -> "-"
          in
          Printf.sprintf "%s route=%s crit=%s" (fmt_iteration it)
            (route_digest routing) crit
        in
        let warm = eval ~session ~route_session () and cold = eval () in
        if warm <> cold then
          Alcotest.failf
            "%s: incremental and cold evaluation disagree at K=%g:\n\
            \  warm: %s\n\
            \  cold: %s"
            name k warm cold;
        warm)
      k_points
  in
  header :: lines

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let write_lines path lines =
  let oc = open_out path in
  List.iter (fun l -> output_string oc (l ^ "\n")) lines;
  close_out oc

(* Readable diff: every divergent line with its number, expected marked
   [-], actual marked [+]. *)
let diff_message name expected actual =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "%s: per-K metrics diverged from the golden snapshot (%s).\n\
        If the QoR change is intentional, regenerate with \
        CALS_GOLDEN_UPDATE=1.\n"
       name (expected_path name));
  let n = max (List.length expected) (List.length actual) in
  for i = 0 to n - 1 do
    let e = List.nth_opt expected i and a = List.nth_opt actual i in
    if e <> a then begin
      (match e with
      | Some e -> Buffer.add_string buf (Printf.sprintf "  line %d - %s\n" (i + 1) e)
      | None -> Buffer.add_string buf (Printf.sprintf "  line %d - <missing>\n" (i + 1)));
      match a with
      | Some a -> Buffer.add_string buf (Printf.sprintf "  line %d + %s\n" (i + 1) a)
      | None -> Buffer.add_string buf (Printf.sprintf "  line %d + <missing>\n" (i + 1))
    end
  done;
  Buffer.contents buf

let check_design (name, make) () =
  let net = load_network name make in
  let actual = actual_lines name net in
  let path = expected_path name in
  if update_mode then begin
    write_lines path actual;
    Printf.printf "updated %s\n" path
  end
  else begin
    if not (Sys.file_exists path) then
      Alcotest.failf "%s: missing golden snapshot %s (run with \
                      CALS_GOLDEN_UPDATE=1 to create it)" name path;
    let expected = read_lines path in
    if expected <> actual then Alcotest.fail (diff_message name expected actual)
  end

(* Synthesis orchestration over the whole corpus: on every design the
   selected candidate's accepted K is never worse than the fixed
   pipeline's, and across the corpus the selected subjects are smaller
   than the baselines. *)
let test_orchestrate_never_worse () =
  let floorplan_of subject =
    Floorplan.for_area
      ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
      ~utilization:0.55 ~aspect:1.0 ~geometry
  in
  let accepted_k ev =
    match ev.Flow.result with
    | Some ({ Flow.accepted = Some it; _ }, _) -> Some it.Flow.k
    | _ -> None
  in
  let base_gates, best_gates =
    List.fold_left
      (fun (base_gates, best_gates) (name, make) ->
        let r =
          Flow.orchestrate ~optimize:false ~network:(load_network name make)
            ~library:lib ~floorplan_of ~seed:1 ()
        in
        let base = accepted_k r.Flow.baseline
        and best = accepted_k r.Flow.best in
        Alcotest.(check bool)
          (Printf.sprintf "%s: accepted K never worse than the baseline's" name)
          true
          (match (base, best) with
          | None, _ -> true
          | Some _, None -> false
          | Some b, Some s -> s <= b);
        (base_gates + r.Flow.baseline.Flow.gates,
         best_gates + r.Flow.best.Flow.gates))
      (0, 0) designs
  in
  Alcotest.(check bool)
    (Printf.sprintf "corpus subject gates %d -> %d" base_gates best_gates)
    true (best_gates < base_gates)

let () =
  Alcotest.run "golden"
    [
      ( "corpus",
        List.map
          (fun d -> Alcotest.test_case (fst d) `Quick (check_design d))
          designs );
      ( "synthesis",
        [ Alcotest.test_case "orchestrate never worse" `Quick
            test_orchestrate_never_worse ] );
    ]
