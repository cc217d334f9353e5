module Check = Cals_verify.Check
module Equiv = Cals_verify.Equiv
module Fuzz = Cals_verify.Fuzz
module Network = Cals_logic.Network
module Subject = Cals_netlist.Subject
module Floorplan = Cals_place.Floorplan

let family_of = function
  | Fuzz.Pla -> `Pla
  | Fuzz.Multilevel -> `Multilevel

(* Odd seeds run congested: two metal layers on a dense floorplan, where
   the cut certificate fires, so its runtime check below has points to
   re-route. Even seeds keep the default router on a loose floorplan. The
   configuration follows the seed, which the shrinker never changes, so a
   reproducer replays it. *)
let configuration (p : Fuzz.params) =
  if p.Fuzz.seed land 1 = 1 then
    (0.85, { Cals_route.Router.default_config with layers = 2 })
  else (0.45, Cals_route.Router.default_config)

let check_params ?(level = Check.Full) (p : Fuzz.params) =
  let utilization, router_config = configuration p in
  let library = Cals_cell.Stdlib_018.library in
  let geometry = Cals_cell.Library.geometry library in
  let rounds = max 2 (Check.rounds level) in
  try
    let network =
      Cals_workload.Gen.of_fuzz ~family:(family_of p.Fuzz.family)
        ~seed:p.Fuzz.seed ~inputs:p.Fuzz.inputs ~outputs:p.Fuzz.outputs
        ~size:p.Fuzz.size
    in
    let original = Network.copy network in
    Cals_logic.Optimize.script_area network;
    Equiv.check_exn ~rounds
      ~rng:(Cals_util.Rng.create (p.Fuzz.seed + 17))
      ~stage:"equiv"
      (Equiv.of_network ~label:"original" original)
      (Equiv.of_network ~label:"optimized" network);
    let subject = Cals_logic.Decompose.subject_of_network network in
    Equiv.check_exn ~rounds
      ~rng:(Cals_util.Rng.create (p.Fuzz.seed + 23))
      ~stage:"equiv"
      (Equiv.of_network ~label:"optimized" network)
      (Equiv.of_subject ~label:"subject" subject);
    let floorplan = Floorplan.for_subject ~utilization ~geometry subject in
    let rng = Cals_util.Rng.create (p.Fuzz.seed + 1) in
    let positions = Cals_place.Placement.place_subject subject ~floorplan ~rng in
    (* One session serves the search and the re-routes below. *)
    let session = Incremental.create ~subject ~library ~positions () in
    Incremental.warm session;
    let outcome, _ =
      Flow.run_adaptive ~router_config ~checks:level ~session ~positions
        ~subject ~library ~floorplan ~rng ()
    in
    (* Every point skipped on a cut certificate must really fail to
       route, with at least the violations its report claims. *)
    let violations (it : Flow.iteration) =
      it.Flow.report.Cals_route.Congestion.violations
    in
    let refuted (it : Flow.iteration) =
      if it.Flow.verdict <> Some Cals_estimate.Estimate.Unroutable then None
      else begin
        let real, _ =
          Flow.evaluate_k ~router_config ~estimate:Cals_estimate.Estimate.Off
            ~session ~subject ~library ~floorplan ~positions ~k:it.Flow.k ()
        in
        if violations real < violations it then Some (it, real) else None
      end
    in
    match List.find_map refuted outcome.Flow.iterations with
    | Some (it, real) ->
      Error
        ( "certificate",
          Printf.sprintf
            "K=%g was certified unroutable with at least %d violations, but \
             routes with %d"
            it.Flow.k (violations it) (violations real) )
    | None -> Ok ()
  with
  | Check.Violation { stage; detail } -> Error (stage, detail)
  | exn -> Error ("exception", Printexc.to_string exn)
