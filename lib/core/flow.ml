module Placement = Cals_place.Placement
module Floorplan = Cals_place.Floorplan
module Router = Cals_route.Router
module Congestion = Cals_route.Congestion
module Estimate = Cals_estimate.Estimate
module Mapped = Cals_netlist.Mapped
module Span = Cals_telemetry.Span
module Metrics = Cals_telemetry.Metrics
module Check = Cals_verify.Check
module Equiv = Cals_verify.Equiv
module Invariant = Cals_verify.Invariant

let log_src = Logs.Src.create "cals.flow" ~doc:"Figure-3 methodology loop"

module Log = (val Logs.src_log log_src)

let m_k_evaluated =
  Metrics.counter ~help:"K points evaluated (map+place+route)" "flow_k_evaluated"

let m_legalize_overflows =
  Metrics.counter ~help:"K points whose netlist did not fit the floorplan"
    "flow_legalize_overflows"

let m_routes_skipped =
  Metrics.counter
    ~help:"K points whose negotiated route the estimator skipped"
    "flow_routes_skipped"

type iteration = {
  k : float;
  cells : int;
  cell_area : float;
  utilization : float;
  hpwl_um : float;
  report : Congestion.report;
  estimated : bool;
  verdict : Estimate.verdict option;
}

type outcome = {
  iterations : iteration list;
  accepted : iteration option;
  mapped : Mapped.t option;
  placement : Placement.mapped_placement option;
  routing : Router.result option;
}

type adaptive_stats = {
  real_routes : int;
  forecast_evals : int;
  frontier_k : float option;
}

let default_k_schedule =
  [ 0.0; 0.0001; 0.00025; 0.0005; 0.00075; 0.001; 0.0025; 0.005; 0.0075; 0.01;
    0.05; 0.1; 0.5; 1.0 ]

let overflow_report =
  (* Sentinel for netlists that do not even legalize into the floorplan. *)
  {
    Congestion.violations = max_int;
    total_overflow = infinity;
    max_utilization = infinity;
    congested_gcell_fraction = 1.0;
    wirelength_um = infinity;
  }

(* Per-K equivalence stimulus must depend only on K so that the adaptive
   search, whose probes visit the ladder out of order, sees exactly the
   streams a cold in-order walk would. The seed derivation lives in one
   place and is hoisted to the top of [evaluate_k], before any
   mapper/cache work, so that no amount of warm-start reuse can reorder
   or perturb it. *)
let equiv_seed ~k = Int64.to_int (Int64.bits_of_float k)

let check_equiv ~checks ~subject ~seed ~k mapped =
  Equiv.check_exn
    ~rounds:(Check.rounds checks)
    ~rng:(Cals_util.Rng.create seed)
    ~stage:"equiv" (Equiv.of_subject subject)
    (Equiv.of_mapped ~label:(Printf.sprintf "mapped@K=%g" k) mapped)

let evaluate_k ?router_config ?(checks = Check.Off)
    ?(estimate = Estimate.Prune) ?session ?lookups ?route_session ?route_pool
    ?(t = 0.0) ?(cancel = Cals_util.Cancel.never) ~subject ~library ~floorplan
    ~positions ~k () =
  Span.with_ ~cat:"flow" ~meta:(Printf.sprintf "K=%g" k) "flow.k_eval"
  @@ fun () ->
  Cals_util.Cancel.check cancel;
  Metrics.incr m_k_evaluated;
  let seed = equiv_seed ~k in
  let verify = checks <> Check.Off in
  let session =
    match session with
    | Some session -> session
    | None -> Incremental.create ~subject ~library ~positions ()
  in
  let result = Incremental.map ~verify ~t ?lookups session ~k in
  let mapped = result.Mapper.mapped in
  Cals_util.Cancel.check cancel;
  if checks = Check.Full then check_equiv ~checks ~subject ~seed ~k mapped;
  let cell_area = Mapped.total_area mapped in
  let utilization = Floorplan.utilization floorplan ~cell_area in
  match Placement.place_mapped_seeded mapped ~floorplan with
  | exception Cals_place.Legalize.Overflow _ ->
    Metrics.incr m_legalize_overflows;
    ( {
        k;
        cells = Mapped.num_cells mapped;
        cell_area;
        utilization;
        hpwl_um = infinity;
        report = overflow_report;
        estimated = false;
        verdict = None;
      },
      (mapped, None, None) )
  | placement ->
    if verify then
      Check.record ~stage:"place"
        (Invariant.check_placement ~floorplan mapped placement);
    Cals_util.Cancel.check cancel;
    (* One request per placed point: the forecast scores exactly the
       input the route below would take. *)
    let request =
      Router.Request.of_mapped ?config:router_config mapped ~floorplan
        ~wire:(Cals_cell.Library.wire library) ~placement
    in
    let forecast =
      match estimate with
      | Estimate.Off -> None
      | Estimate.Prune | Estimate.Triage -> Some (Estimate.forecast request)
    in
    let skip_route =
      match (estimate, forecast) with
      | Estimate.Triage, Some _ -> true
      | Estimate.Prune, Some f -> f.Estimate.verdict = Estimate.Unroutable
      | _ -> false
    in
    match (skip_route, forecast) with
    | true, Some f ->
      (* The estimator stands in for the router at this point. Under
         [Prune] only certified-Unroutable points land here: their cut
         certificate proves the real route violates, and their reports
         carry that proof's lower bound (>= 1), so a pruned point can
         never be the accepted one — acceptance always rides on a real
         route. Under [Triage] nothing routes; an [Uncertain] verdict
         must still read as a rejection even when the damped violation
         estimate rounds to zero. *)
      Metrics.incr m_routes_skipped;
      let report = Estimate.report f in
      let report =
        if f.Estimate.verdict <> Estimate.Routable && report.violations = 0
        then { report with Congestion.violations = 1 }
        else report
      in
      Log.debug (fun m ->
          m "K=%g route skipped on %s forecast (norm overflow %.4f)" k
            (Estimate.verdict_to_string f.Estimate.verdict)
            f.Estimate.normalized_overflow);
      ( {
          k;
          cells = Mapped.num_cells mapped;
          cell_area;
          utilization;
          hpwl_um = placement.Placement.hpwl;
          report;
          estimated = true;
          verdict = Some f.Estimate.verdict;
        },
        (mapped, Some placement, None) )
    | _ ->
      let routing =
        Router.route ~cancel ?session:route_session ?pool:route_pool request
      in
      if verify then
        Check.record ~stage:"route"
          (Invariant.check_routing ~usage:(checks = Check.Full) routing);
      let report = Congestion.of_result routing in
      ( {
          k;
          cells = Mapped.num_cells mapped;
          cell_area;
          utilization;
          hpwl_um = placement.Placement.hpwl;
          report;
          estimated = false;
          verdict = Option.map (fun f -> f.Estimate.verdict) forecast;
        },
        (mapped, Some placement, Some routing) )

(* Cheap defers equivalence to the single netlist the flow ships; Full
   already checked every K point inside [evaluate_k]. *)
let check_accepted ~checks ~subject ~k mapped =
  if checks = Check.Cheap then
    check_equiv ~checks ~subject ~seed:(equiv_seed ~k) ~k mapped

let log_rejected (it : iteration) =
  Log.debug (fun m ->
      m "K=%g rejected: overflow %.1f, %d violations, util %.2f%%" it.k
        it.report.Congestion.total_overflow it.report.Congestion.violations
        (100.0 *. it.utilization))

let log_accepted (it : iteration) =
  Log.info (fun m ->
      m "K=%g accepted: overflow %.1f, %d cells, util %.2f%%" it.k
        it.report.Congestion.total_overflow it.cells
        (100.0 *. it.utilization))

(* ---------------- Adaptive K search ---------------- *)

(* A point the pruned linear sweep would reject without ever routing it:
   the netlist does not legalize, or its cut certificate proves every
   route of it violates (the forecast's [Unroutable]). Both are proofs,
   not forecasts: such a point also fails a real route, so it can never
   be the accepted one. These are the only points the adaptive search
   may skip a real route for, which is what makes its accepted K
   bit-identical to the linear schedule's, pruned or not. *)
let established_rejected (it : iteration) =
  it.hpwl_um = infinity || it.verdict = Some Estimate.Unroutable

let run_adaptive ?(k_schedule = default_k_schedule) ?router_config
    ?(checks = Check.Off) ?(route_jobs = 1) ?(t = 0.0)
    ?(cancel = Cals_util.Cancel.never) ?session ?lookups ?positions ~subject
    ~library ~floorplan ~rng () =
  Span.with_ ~cat:"flow" "flow.run_adaptive" @@ fun () ->
  let positions =
    match positions with
    | Some positions -> positions
    | None ->
      Span.with_ ~cat:"flow" "flow.place_subject" @@ fun () ->
      Placement.place_subject subject ~floorplan ~rng
  in
  let session =
    match session with
    | Some s -> s
    | None ->
      let s = Incremental.create ~subject ~library ~positions () in
      Incremental.warm s;
      s
  in
  let route_session = Incremental.route_session session in
  let route_pool =
    if route_jobs > 1 then Some (Cals_util.Pool.create ~jobs:route_jobs)
    else None
  in
  Fun.protect
    ~finally:(fun () -> Option.iter Cals_util.Pool.shutdown route_pool)
  @@ fun () ->
  let ks = Array.of_list k_schedule in
  let n = Array.length ks in
  let results : iteration option array = Array.make n None in
  let forecast_evals = ref 0 in
  let real_routes = ref 0 in
  (* Forecast-only evaluation: map, legalize and run the estimator, never
     the router ([Triage] skips every negotiated route). *)
  let triage idx =
    incr forecast_evals;
    let iteration, _ =
      evaluate_k ?router_config ~checks ~estimate:Estimate.Triage ~session
        ?lookups ~route_session ~t ~cancel ~subject ~library ~floorplan ~positions
        ~k:ks.(idx) ()
    in
    results.(idx) <- Some iteration;
    iteration
  in
  (* Phase 1 — verdict bisection. Find the frontier: the lowest schedule
     index that is not proven rejected. Congestion falls
     as K rises, so ruled-out points form (in practice) a prefix of the
     ladder; the bisection exploits that to seed the frontier in
     O(log n) forecast probes instead of n. *)
  let rec bisect lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if established_rejected (triage mid) then bisect (mid + 1) hi
      else bisect lo mid
    end
  in
  let seed_frontier = bisect 0 n in
  (* Phase 2 — soundness sweep. The bisection's prefix assumption is an
     optimization, never a premise: forecast every point it skipped below
     the seed, and lower the frontier to the first point not proven
     rejected. After this pass every point below the frontier is
     established-rejected by exactly the rules the pruned linear sweep
     applies, so skipping their routes cannot move the accepted K. *)
  for idx = seed_frontier - 1 downto 0 do
    if results.(idx) = None then ignore (triage idx)
  done;
  let frontier =
    let rec first idx =
      if idx >= seed_frontier then seed_frontier
      else
        match results.(idx) with
        | Some it when not (established_rejected it) -> idx
        | _ -> first (idx + 1)
    in
    first 0
  in
  Log.debug (fun m ->
      m "adaptive frontier at %s after %d forecast evaluations"
        (if frontier < n then Printf.sprintf "K=%g" ks.(frontier) else "end")
        !forecast_evals);
  (* Phase 3 — confirming routes. From the frontier up this is the pruned
     linear loop: each point re-forecasts under [Prune] (skipping any
     whose certificate proves it unroutable) and otherwise routes for
     real, until
     the first acceptable real route. Acceptance still rides a real
     route; the refinement only reorders where the forecast work
     happens. *)
  let rec confirm idx =
    if idx >= n then None
    else begin
      let iteration, (mapped, placement, routing) =
        evaluate_k ?router_config ~checks ~estimate:Estimate.Prune ~session
          ?lookups ~route_session ?route_pool ~t ~cancel ~subject ~library
          ~floorplan ~positions ~k:ks.(idx) ()
      in
      results.(idx) <- Some iteration;
      if (not iteration.estimated) && iteration.hpwl_um < infinity then
        incr real_routes;
      if Congestion.acceptable iteration.report then begin
        log_accepted iteration;
        check_accepted ~checks ~subject ~k:iteration.k mapped;
        Some (iteration, mapped, placement, routing)
      end
      else begin
        log_rejected iteration;
        confirm (idx + 1)
      end
    end
  in
  let accepted = confirm frontier in
  let iterations = List.filter_map Fun.id (Array.to_list results) in
  let stats =
    {
      real_routes = !real_routes;
      forecast_evals = !forecast_evals;
      frontier_k = (if frontier < n then Some ks.(frontier) else None);
    }
  in
  match accepted with
  | Some (iteration, mapped, placement, routing) ->
    ( { iterations; accepted = Some iteration; mapped = Some mapped;
        placement; routing },
      stats )
  | None ->
    Log.info (fun m -> m "no K in the schedule was acceptable");
    ( { iterations; accepted = None; mapped = None; placement = None;
        routing = None },
      stats )

(* ---------------- Synthesis orchestration ---------------- *)

module Orchestrate = Cals_logic.Orchestrate
module Subject = Cals_netlist.Subject

let m_orch_evaluated =
  Metrics.counter
    ~help:"Orchestrator candidates scored through the K-loop"
    "orchestrate_candidates_evaluated"

let m_orch_guarded =
  Metrics.counter
    ~help:"Orchestrator candidates skipped by the subject-size guard"
    "orchestrate_candidates_guarded"

let m_orch_improvements =
  Metrics.counter
    ~help:"Orchestrated runs where a non-baseline candidate was selected"
    "orchestrate_improvements"

type candidate_eval = {
  cand_label : string;
  gates : int;
  aig_ands : int option;
  aig_depth : int option;
  guarded : bool;
  result : (outcome * adaptive_stats) option;
}

type orchestrated = {
  evaluations : candidate_eval list;
  baseline : candidate_eval;
  best : candidate_eval;
  best_index : int;
  best_subject : Subject.t;
  best_network : Cals_logic.Network.t;
}

(* Candidate ranking key, lexicographic and total: accepted K first (the
   paper's objective — None sorts last), then subject gates, then mapped
   cell area, then candidate index so the baseline wins exact ties.
   Pure data comparison => repeated runs select identically. *)
let score_of_eval idx ev =
  match ev.result with
  | None -> (infinity, max_int, infinity, idx)
  | Some (outcome, _) -> (
    match outcome.accepted with
    | None -> (infinity, ev.gates, infinity, idx)
    | Some it -> (it.k, ev.gates, it.cell_area, idx))

let orchestrate ?(budget = Cals_logic.Orchestrate.default_budget)
    ?(optimize = true) ?k_schedule ?(checks = Check.Off)
    ?(jobs = 1) ?(route_jobs = 1) ?(t = 0.0)
    ?(cancel = Cals_util.Cancel.never) ~network ~library ~floorplan_of ~seed
    () =
  Span.with_ ~cat:"flow"
    ~meta:(Printf.sprintf "budget=%d" budget)
    "flow.orchestrate"
  @@ fun () ->
  let prepared =
    Array.of_list (Orchestrate.prepare ~optimize ~budget network)
  in
  let baseline_prep = prepared.(0) in
  let baseline_gates = Orchestrate.subject_gates baseline_prep.subject in
  (* The orchestrator's correctness gate is unconditional: every candidate
     that can be selected is miter-checked against the baseline network
     before any K-loop money is spent on it. *)
  let check_candidate idx (p : Orchestrate.prepared) =
    Equiv.check_exn
      ~rng:(Cals_util.Rng.create (seed + 7919 + idx))
      ~stage:("orchestrate:" ^ p.label)
      (Equiv.of_network ~label:"baseline network" baseline_prep.network)
      (Equiv.of_subject ~label:(p.label ^ " subject") p.subject)
  in
  (* route_jobs nests a second pool inside each candidate task; keep the
     router sequential when the candidates themselves run on a pool. *)
  let route_jobs = if jobs > 1 then 1 else route_jobs in
  let evaluate idx (p : Orchestrate.prepared) =
    let gates = Orchestrate.subject_gates p.subject in
    let guarded = idx > 0 && gates > baseline_gates in
    if guarded then begin
      Metrics.incr m_orch_guarded;
      {
        cand_label = p.label;
        gates;
        aig_ands = p.aig_ands;
        aig_depth = p.aig_depth;
        guarded;
        result = None;
      }
    end
    else begin
      check_candidate idx p;
      Metrics.incr m_orch_evaluated;
      let result =
        run_adaptive ?k_schedule ~checks ~route_jobs ~t ~cancel
          ~subject:p.subject ~library
          ~floorplan:(floorplan_of p.subject)
          ~rng:(Cals_util.Rng.create (seed + 1))
          ()
      in
      {
        cand_label = p.label;
        gates;
        aig_ands = p.aig_ands;
        aig_depth = p.aig_depth;
        guarded;
        result = Some result;
      }
    end
  in
  let evaluations =
    if jobs > 1 then begin
      let pool = Cals_util.Pool.create ~jobs in
      Fun.protect ~finally:(fun () -> Cals_util.Pool.shutdown pool)
      @@ fun () -> Cals_util.Pool.map_array pool ~f:evaluate prepared
    end
    else Array.mapi evaluate prepared
  in
  let best_index = ref 0 in
  Array.iteri
    (fun idx ev ->
      if compare (score_of_eval idx ev) (score_of_eval !best_index evaluations.(!best_index)) < 0
      then best_index := idx)
    evaluations;
  let best_index = !best_index in
  let best = evaluations.(best_index) in
  if best_index > 0 then Metrics.incr m_orch_improvements;
  (* Final gate: the selected mapped netlist (when one was accepted) is
     re-mitered against its own subject graph. *)
  (match best.result with
  | Some ({ accepted = Some it; mapped = Some mapped; _ }, _) ->
    Equiv.check_exn
      ~rng:(Cals_util.Rng.create (equiv_seed ~k:it.k))
      ~stage:"orchestrate:accepted"
      (Equiv.of_subject ~label:"selected subject"
         prepared.(best_index).subject)
      (Equiv.of_mapped
         ~label:(Printf.sprintf "selected mapped@K=%g" it.k)
         mapped)
  | _ -> ());
  Log.info (fun m ->
      m "orchestrate: selected %s (%d gates vs baseline %d) from %d candidates"
        best.cand_label best.gates baseline_gates (Array.length evaluations));
  {
    evaluations = Array.to_list evaluations;
    baseline = evaluations.(0);
    best;
    best_index;
    best_subject = prepared.(best_index).subject;
    best_network = prepared.(best_index).network;
  }
