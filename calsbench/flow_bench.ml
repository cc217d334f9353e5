(* What the workloads share: building a design the way [cals flow] and the
   serve scheduler do, searching it with Flow.run_adaptive, the
   correctness gate on the search's final netlist, and the traced
   point-by-point replay of a finished search. *)

module Flow = Cals_core.Flow
module Incremental = Cals_core.Incremental
module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Router = Cals_route.Router
module Congestion = Cals_route.Congestion
module Estimate = Cals_estimate.Estimate
module Equiv = Cals_verify.Equiv
module Sta = Cals_sta.Sta
module Rng = Cals_util.Rng

let library = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry library
let wire = Cals_cell.Library.wire library
let span = Layer.span

let preset name ~scale ~seed () =
  span "workload.generate" @@ fun () ->
  match name with
  | "spla" -> Cals_workload.Presets.spla_like ~scale ~seed ()
  | "pdc" -> Cals_workload.Presets.pdc_like ~scale ~seed ()
  | "too_large" -> Cals_workload.Presets.too_large_like ~scale ~seed ()
  | other -> invalid_arg ("unknown preset " ^ other)

(* The floorplan policy of [cals flow] and the serve scheduler: 5 um2 of
   core per subject gate. *)
let floorplan_of ~utilization subject =
  Floorplan.for_area
    ~core_area:(float_of_int (Subject.num_gates subject) *. 5.0)
    ~utilization ~aspect:1.0 ~geometry

(* ------------------------------------------------------------------ *)
(* Set-up and search                                                    *)

type built = {
  subject : Subject.t;
  floorplan : Floorplan.t;
  positions : Cals_util.Geom.point array;
  session : Incremental.session;
}

(* Everything a K search needs before its first K point: optimize (the
   light script, as [cals flow] and unoptimized serve jobs do), decompose,
   floorplan, companion placement, and a warmed match session. *)
let build ~network ~utilization ~place_seed =
  let network = network () in
  span "logic.optimize" (fun () -> Cals_logic.Optimize.script_light network);
  let subject =
    span "logic.decompose" (fun () ->
        Cals_logic.Decompose.subject_of_network network)
  in
  let floorplan =
    span "place.floorplan" (fun () -> floorplan_of ~utilization subject)
  in
  let positions =
    span "place.companion" (fun () ->
        Placement.place_subject subject ~floorplan
          ~rng:(Rng.create place_seed))
  in
  let session =
    span "core.session" (fun () ->
        let s = Incremental.create ~subject ~library ~positions () in
        Incremental.warm s;
        s)
  in
  { subject; floorplan; positions; session }

let search ?(t = 0.0) b =
  Flow.run_adaptive ~route_jobs:1 ~t ~session:b.session ~positions:b.positions
    ~subject:b.subject ~library ~floorplan:b.floorplan ~rng:(Rng.create 0) ()

(* ------------------------------------------------------------------ *)
(* Correctness gate and QoR                                             *)

type qor = {
  rank : int;  (** 1-based ladder index of the accepted K; 15 = none. *)
  area_um2 : float;
  wirelength_um : float;
  violations : int;
  crit_path_ns : float;
}

type gated = {
  qor : qor option;
  mapped : Mapped.t option;  (** The netlist the gate checked. *)
  errors : string list;
}

let k_rank (outcome : Flow.outcome) =
  let rec find i = function
    | [] -> i
    | k :: rest ->
      if Some k = Option.map (fun it -> it.Flow.k) outcome.Flow.accepted then i
      else find (i + 1) rest
  in
  find 1 Flow.default_k_schedule

let routed (it : Flow.iteration) =
  (not it.Flow.estimated) && it.Flow.hpwl_um < infinity

(* The netlist the gate looks at: the accepted one, or the last one the
   search evaluated when it accepted nothing. That one is re-evaluated
   with [Flow.evaluate_k] on the search's own session and must reproduce
   the search's record; when the search ruled it out without routing it,
   the gate routes it so that its QoR is measured like every other. *)
let final_netlist ~t (b : built Lazy.t) (outcome : Flow.outcome) =
  match outcome.Flow.accepted with
  | Some it -> (
    match
      (outcome.Flow.mapped, outcome.Flow.placement, outcome.Flow.routing)
    with
    | Some m, Some p, Some r when routed it -> Ok (it.Flow.k, m, p, r)
    | _ -> Error "accepted K did not come from a real route")
  | None -> (
    match List.rev outcome.Flow.iterations with
    | [] -> Error "the search evaluated no K point"
    | last :: _ -> (
      let b = Lazy.force b in
      let estimate =
        if last.Flow.estimated then Estimate.Triage else Estimate.Prune
      in
      let it, (m, p, r) =
        Flow.evaluate_k ~estimate ~session:b.session
          ~route_session:(Incremental.route_session b.session)
          ~t ~subject:b.subject ~library ~floorplan:b.floorplan
          ~positions:b.positions ~k:last.Flow.k ()
      in
      match (p, r) with
      | _ when compare it last <> 0 ->
        Error
          (Printf.sprintf "K=%g does not re-evaluate to its record"
             last.Flow.k)
      | Some p, Some r -> Ok (it.Flow.k, m, p, r)
      | Some p, None ->
        Ok
          ( it.Flow.k,
            m,
            p,
            Router.route_mapped m ~floorplan:b.floorplan ~wire ~placement:p )
      | None, _ -> Error "the last K point does not legalize"))

(* An accepted K must ride a real route with no violations, and the
   final netlist must compute its subject graph's function. [b] is the
   search's set-up, needed only when the search accepted nothing. *)
let gate ?(t = 0.0) ~subject b outcome =
  match final_netlist ~t b outcome with
  | Error e -> { qor = None; mapped = None; errors = [ e ] }
  | Ok (k, mapped, placement, routing) ->
    let report = Congestion.of_result routing in
    let violations = report.Congestion.violations in
    let errors =
      if outcome.Flow.accepted <> None && violations <> 0 then
        [ "accepted K has routing violations" ]
      else []
    in
    let errors =
      match
        span "verify.equiv" (fun () ->
            Equiv.check
              ~rng:(Rng.create (Flow.equiv_seed ~k))
              (Equiv.of_subject subject) (Equiv.of_mapped mapped))
      with
      | Ok () -> errors
      | Error cex -> ("miter: " ^ Equiv.counterexample_to_string cex) :: errors
    in
    let sta =
      span "sta.analyze" (fun () ->
          Sta.analyze ~net_length_um:routing.Router.net_length_um mapped
            ~wire ~placement)
    in
    {
      qor =
        Some
          {
            rank = k_rank outcome;
            area_um2 = Mapped.total_area mapped;
            wirelength_um = report.Congestion.wirelength_um;
            violations;
            crit_path_ns = sta.Sta.critical.Sta.arrival_ns;
          };
      mapped = Some mapped;
      errors;
    }

(* ------------------------------------------------------------------ *)
(* Traced replay                                                        *)

(* What the replays of one workload add up to; the per-point records
   themselves are compared on the spot. *)
type replay_counts = {
  mutable forecast : int;
  mutable ruled_out : int;
  mutable agreed : int;
  mutable routes : int;
  mutable replays : int;
  mutable nets_rerouted : int;
  mutable mismatches : string list;
}

let new_counts () =
  {
    forecast = 0;
    ruled_out = 0;
    agreed = 0;
    routes = 0;
    replays = 0;
    nets_rerouted = 0;
    mismatches = [];
  }

(* The record [Flow.evaluate_k] gives a netlist that does not legalize. *)
let overflow_report =
  {
    Congestion.violations = max_int;
    total_overflow = infinity;
    max_utilization = infinity;
    congested_gcell_fraction = 1.0;
    wirelength_um = infinity;
  }

(* Re-run every point of a finished search, in [iterations] order, through
   the public calls [Flow.evaluate_k] makes — map, legalize, forecast and,
   where the search really routed, route on a fresh route session — and
   check that each rebuilt record equals the search's own. *)
let replay counts ~label ?(t = 0.0) b (iterations : Flow.iteration list) =
  let floorplan = b.floorplan in
  let route_session = Router.Session.create () in
  List.iter
    (fun (it : Flow.iteration) ->
      let k = it.Flow.k in
      let result = span "core.map" (fun () -> Incremental.map ~t b.session ~k) in
      let mapped = result.Cals_core.Mapper.mapped in
      let cell_area = Mapped.total_area mapped in
      let base =
        {
          Flow.k;
          cells = Mapped.num_cells mapped;
          cell_area;
          utilization = Floorplan.utilization floorplan ~cell_area;
          hpwl_um = infinity;
          report = overflow_report;
          estimated = false;
          verdict = None;
        }
      in
      let rebuilt =
        match
          span "place.legalize" (fun () ->
              Placement.place_mapped_seeded mapped ~floorplan)
        with
        | exception Cals_place.Legalize.Overflow _ -> base
        | placement ->
          let f =
            span "estimate.forecast" (fun () ->
                Estimate.forecast_mapped mapped ~floorplan ~wire ~placement)
          in
          counts.forecast <- counts.forecast + 1;
          let verdict = f.Estimate.verdict in
          let report =
            if it.Flow.estimated then begin
              if verdict = Estimate.Unroutable then
                counts.ruled_out <- counts.ruled_out + 1;
              (* Flow.evaluate_k's skipped-route record: a forecast that
                 is not Routable always reads as a rejection. *)
              let r = Estimate.report f in
              if verdict <> Estimate.Routable && r.Congestion.violations = 0
              then { r with Congestion.violations = 1 }
              else r
            end
            else begin
              let routing =
                span "route.route" (fun () ->
                    Router.route_mapped ~session:route_session mapped
                      ~floorplan ~wire ~placement)
              in
              counts.routes <- counts.routes + 1;
              let r = Congestion.of_result routing in
              let clean = Congestion.acceptable r in
              if (verdict = Estimate.Routable && clean)
                 || (verdict = Estimate.Unroutable && not clean)
              then counts.agreed <- counts.agreed + 1;
              r
            end
          in
          {
            base with
            hpwl_um = placement.Placement.hpwl;
            report;
            estimated = it.Flow.estimated;
            verdict = Some verdict;
          }
      in
      if compare rebuilt it <> 0 then
        counts.mismatches <-
          Printf.sprintf "%s: replay of K=%g differs from the search" label k
          :: counts.mismatches)
    iterations;
  let s = Router.Session.stats route_session in
  counts.replays <- counts.replays + s.Router.Session.replays;
  counts.nets_rerouted <- counts.nets_rerouted + s.Router.Session.nets_rerouted
