(* The [congested] and [orchestrate] workloads. *)

open Flow_bench
module Orchestrate = Cals_logic.Orchestrate

let set = Report.set
let seti = Report.seti

(* A design search: a fixed circuit under one companion-placement stream
   drawn from the workload seed. *)
type instance = {
  label : string;
  network : unit -> Cals_logic.Network.t;
  utilization : float;
  place_seed : int;
}

let build_instance i =
  build ~network:i.network ~utilization:i.utilization ~place_seed:i.place_seed

(* Placement stream [i] of a workload seed. *)
let stream ~seed i = (seed * 7919) + i

(* Small PDC-like and SPLA-like circuits (scale 0.05) at 85% utilization
   never settle: their ladder points fail the real route, or the
   estimator rules them out, so the search routes up to all 14 points and
   the router carries the run. Settling is chaotic near the routable edge
   (SPLA/PDC at scale 0.25 and 45-50% flip between "accepted at the first
   K" and "never" with the placement stream), and even inside the
   unroutable band how many points the estimator rules out, and so a
   search's time, swings by half between placement streams; ten seeded
   streams still moved their sum by 30% between seeds. So these searches
   run under fixed streams, two per circuit, and the run repeats them as
   often as its time allows. A SPLA-like circuit at scale 0.1 and 55%
   settles at K = 0 on every stream: three searches of it under streams
   drawn from the workload seed gate accepted netlists and carry the seed
   into the QoR metrics. *)
let congested_instances ~tiny ~seed =
  let streams = if tiny then 1 else 2 and settling = if tiny then 1 else 3 in
  let unroutable name =
    List.init streams (fun i ->
        {
          label = Printf.sprintf "%s/%d" name i;
          network = preset name ~scale:(if tiny then 0.03 else 0.05) ~seed:1;
          utilization = 0.85;
          place_seed = stream ~seed:1 ((if name = "pdc" then 0 else streams) + i);
        })
  in
  unroutable "pdc" @ unroutable "spla"
  @ List.init settling (fun i ->
        {
          label = Printf.sprintf "spla-settling/%d" i;
          network = preset "spla" ~scale:(if tiny then 0.03 else 0.1) ~seed:1;
          utilization = 0.55;
          place_seed = stream ~seed (100 + i);
        })

(* ------------------------------------------------------------------ *)
(* Metrics shared by the traced runs                                    *)

let span_s name = Layer.seconds name

let qor_metrics report (qors : qor list) =
  let f g = Report.mean (List.map g qors) in
  set report "k_rank" (f (fun q -> float_of_int q.rank));
  set report "area_um2" (f (fun q -> q.area_um2));
  set report "wirelength_um" (f (fun q -> q.wirelength_um));
  set report "crit_path_ns" (f (fun q -> q.crit_path_ns))

let layer_metrics report ~(counts : replay_counts) ~real_routes
    ~forecast_evals ~sessions ~gates ~violations =
  set report "logic.decompose_s" (span_s "logic.decompose");
  set report "logic.optimize_s" (span_s "logic.optimize");
  set report "logic.prepare_s" (span_s "logic.prepare");
  seti report "logic.subject_gates" gates;
  set report "logic.alloc_mb" (Layer.alloc_mb "logic");
  set report "place.companion_s" (span_s "place.companion");
  set report "place.legalize_s" (span_s "place.legalize");
  seti report "place.legalize_calls" (Layer.calls "place.legalize");
  set report "core.session_s" (span_s "core.session");
  set report "core.map_s" (span_s "core.map");
  seti report "core.map_calls" (Layer.calls "core.map");
  let hits, lookups =
    List.fold_left
      (fun (h, l) s ->
        let st = Incremental.stats s in
        (h + st.Incremental.hits, l + st.Incremental.hits + st.Incremental.misses))
      (0, 0) sessions
  in
  set report "core.match_hit_rate" (Report.ratio hits lookups);
  seti report "core.real_routes" real_routes;
  seti report "core.forecast_evals" forecast_evals;
  set report "core.alloc_mb" (Layer.alloc_mb "core");
  set report "estimate.forecast_s" (span_s "estimate.forecast");
  seti report "estimate.calls" (Layer.calls "estimate.forecast");
  set report "estimate.skip_ratio" (Report.ratio counts.ruled_out counts.forecast);
  set report "estimate.agree_ratio"
    (Report.ratio counts.agreed counts.routes);
  let route_s = span_s "route.route" and route_calls = Layer.calls "route.route" in
  set report "route.route_s" route_s;
  seti report "route.calls" route_calls;
  set report "route.s_per_call"
    (if route_calls = 0 then 0.0 else route_s /. float_of_int route_calls);
  set report "route.replay_rate" (Report.ratio counts.replays counts.routes);
  seti report "route.nets_rerouted" counts.nets_rerouted;
  set report "route.alloc_mb" (Layer.alloc_mb "route");
  set report "route.violations" violations;
  set report "sta.analyze_s" (span_s "sta.analyze");
  set report "verify.equiv_s" (span_s "verify.equiv")

(* Runs [replay] once untraced and once traced; returns its counts, the
   share of the traced run spent inside spans, and the tracing overhead. *)
let traced_replay replay =
  Layer.enabled := false;
  let (), plain_s = Report.time (fun () -> ignore (replay ())) in
  Layer.enabled := true;
  let before = Layer.total_s () in
  let counts, traced_s = Report.time replay in
  let covered = Layer.total_s () -. before in
  Layer.enabled := false;
  (counts, covered /. traced_s, (traced_s /. plain_s) -. 1.0)

(* The per-layer metrics of a traced run, after checking that the replay
   described the same searches: every point rebuilt to its record, and
   exactly as many routes as the searches really made. *)
let trace_report report ~(counts : replay_counts) ~coverage ~overhead
    ~(stats : Flow.adaptive_stats list) ~sessions ~gates ~violations =
  let sum f = List.fold_left (fun a s -> a + f s) 0 stats in
  let real_routes = sum (fun s -> s.Flow.real_routes) in
  Report.fault report (List.rev counts.mismatches);
  if counts.routes <> real_routes then
    Report.fault report
      [
        Printf.sprintf "the replay routed %d points, the searches %d"
          counts.routes real_routes;
      ];
  layer_metrics report ~counts ~real_routes
    ~forecast_evals:(sum (fun s -> s.Flow.forecast_evals))
    ~sessions ~gates ~violations;
  set report "trace.coverage" coverage;
  set report "trace.overhead" overhead;
  set report "verify.failed_frac"
    (Report.ratio report.Report.failed report.Report.attempted)

let no_serve report =
  List.iter
    (fun m -> set report m 0.0)
    [
      "serve.queue_wait_p50_s"; "serve.job_run_p50_s"; "serve.cache_hit_rate";
      "serve.store_preloaded"; "serve.retries"; "serve.shed";
    ]

(* ------------------------------------------------------------------ *)
(* congested                                                            *)

(* What must repeat exactly when a search is run again. *)
let signature ((o : Flow.outcome), (s : Flow.adaptive_stats)) =
  (o.Flow.iterations, o.Flow.accepted, s)

let search_errors label ~first r =
  match first with
  | Some r' when compare (signature r) (signature r') <> 0 ->
    [ label ^ ": a repeated search differs from the first" ]
  | _ -> []

let congested report ~tiny ~seed ~seconds ~trace =
  let instances = congested_instances ~tiny ~seed in
  let n = List.length instances in
  if not trace then begin
    let setups = ref [] in
    let per_search = Array.make n [] in
    let first = Array.make n None in
    let qors = ref [] in
    (* One design at a time, each step from a collected heap, so neither a
       timing nor the peak RSS depends on the designs searched before. *)
    let timed f =
      Gc.full_major ();
      Report.time f
    in
    Report.repeat ~seconds ~min_reps:3 (fun rep ->
        let setup_s = ref 0.0 in
        List.iteri
          (fun i inst ->
            let b, dt = timed (fun () -> build_instance inst) in
            setup_s := !setup_s +. dt;
            let r, dt = timed (fun () -> search b) in
            per_search.(i) <- dt :: per_search.(i);
            let errors =
              if rep = 0 then begin
                let g = gate ~subject:b.subject (Lazy.from_val b) (fst r) in
                Option.iter (fun q -> qors := q :: !qors) g.qor;
                first.(i) <- Some r;
                g.errors
              end
              else search_errors inst.label ~first:first.(i) r
            in
            Report.operation report
              (List.map (fun e -> inst.label ^ ": " ^ e) errors))
          instances;
        setups := !setup_s :: !setups);
    let best = Array.to_list (Array.map Report.best per_search) in
    set report "setup_s" (Report.median !setups);
    set report "flow_s" (List.fold_left ( +. ) 0.0 best);
    set report "job_p50_s" (Report.median best);
    let tail, pct = Report.tail best in
    set report "job_tail_s" tail;
    Printf.printf
      "job times: best of %d runs of each of %d searches, tail = p%.0f\n"
      (List.length !setups) n pct;
    set report "peak_rss_mb" (Rss.peak_mb ());
    qor_metrics report !qors
  end
  else begin
    Layer.enabled := true;
    let builts = List.map build_instance instances in
    Layer.enabled := false;
    let results = List.map (fun b -> search b) builts in
    Layer.enabled := true;
    let gated =
      List.map2
        (fun b (o, _) -> gate ~subject:b.subject (Lazy.from_val b) o)
        builts results
    in
    Layer.enabled := false;
    List.iter2
      (fun inst g ->
        Report.operation report
          (List.map (fun e -> inst.label ^ ": " ^ e) g.errors))
      instances gated;
    let counts, coverage, overhead =
      traced_replay (fun () ->
          let counts = new_counts () in
          List.iter2
            (fun (inst, b) ((o : Flow.outcome), _) ->
              replay counts ~label:inst.label b o.Flow.iterations)
            (List.combine instances builts)
            results;
          counts)
    in
    let qors = List.filter_map (fun g -> g.qor) gated in
    no_serve report;
    trace_report report ~counts ~coverage ~overhead ~stats:(List.map snd results)
      ~sessions:(List.map (fun b -> b.session) builts)
      ~gates:
        (List.fold_left (fun a b -> a + Subject.num_gates b.subject) 0 builts)
      ~violations:
        (Report.mean (List.map (fun q -> float_of_int q.violations) qors))
  end

(* ------------------------------------------------------------------ *)
(* orchestrate                                                          *)

let orchestrate_utilization = 0.30
let orchestrate_budget = Orchestrate.default_budget

let orchestrate_network ~tiny =
  preset "too_large" ~scale:(if tiny then 0.03 else 0.25) ~seed:1

let orchestrate_call ~seed network =
  Flow.orchestrate ~budget:orchestrate_budget ~optimize:true ~jobs:1
    ~route_jobs:1 ~network ~library
    ~floorplan_of:(floorplan_of ~utilization:orchestrate_utilization)
    ~seed ()

(* A session for a candidate subject, placed exactly as Flow.orchestrate
   places it. *)
let built_of_subject ~seed subject =
  let floorplan =
    span "place.floorplan" (fun () ->
        floorplan_of ~utilization:orchestrate_utilization subject)
  in
  let positions =
    span "place.companion" (fun () ->
        Placement.place_subject subject ~floorplan ~rng:(Rng.create (seed + 1)))
  in
  let session =
    span "core.session" (fun () ->
        let s = Incremental.create ~subject ~library ~positions () in
        Incremental.warm s;
        s)
  in
  { subject; floorplan; positions; session }

let orchestrate_gate ~seed (r : Flow.orchestrated) =
  match r.Flow.best.Flow.result with
  | None -> { qor = None; mapped = None; errors = [ "the selected candidate was never searched" ] }
  | Some (outcome, _) ->
    gate ~subject:r.Flow.best_subject
      (lazy (built_of_subject ~seed r.Flow.best_subject))
      outcome

let searched (r : Flow.orchestrated) =
  List.filter_map (fun ev -> ev.Flow.result) r.Flow.evaluations

let orchestrate report ~tiny ~seed ~seconds ~trace =
  let generate = orchestrate_network ~tiny in
  if not trace then begin
    let setups = ref [] and flows = ref [] in
    let first = ref None and qors = ref [] in
    Report.repeat ~seconds ~min_reps:3 (fun rep ->
        (* The circuit is the only input Flow.orchestrate does not build
           itself; generating it is the set-up. *)
        let network, setup_s = Report.time generate in
        setups := setup_s :: !setups;
        Gc.full_major ();
        let r, flow_s = Report.time (fun () -> orchestrate_call ~seed network) in
        flows := flow_s :: !flows;
        let key =
          ( List.map
              (fun ev ->
                ( ev.Flow.cand_label,
                  ev.Flow.gates,
                  Option.map signature ev.Flow.result ))
              r.Flow.evaluations,
            r.Flow.best_index )
        in
        let errors =
          if rep = 0 then begin
            let g = orchestrate_gate ~seed r in
            Option.iter (fun q -> qors := q :: !qors) g.qor;
            first := Some key;
            g.errors
          end
          else if compare (Some key) !first <> 0 then
            [ "a repeated orchestration differs from the first" ]
          else []
        in
        Report.operation report errors);
    set report "setup_s" (Report.median !setups);
    let flow = Report.best !flows in
    set report "flow_s" flow;
    set report "job_p50_s" flow;
    set report "job_tail_s" flow;
    Printf.printf "job times: best of %d orchestrations of one design\n"
      (List.length !flows);
    set report "peak_rss_mb" (Rss.peak_mb ());
    qor_metrics report !qors
  end
  else begin
    Layer.enabled := true;
    let network = generate () in
    Layer.enabled := false;
    let r = orchestrate_call ~seed network in
    Layer.enabled := true;
    let g = orchestrate_gate ~seed r in
    Layer.enabled := false;
    Report.operation report g.errors;
    let sessions = ref [] in
    let counts, coverage, overhead =
      traced_replay (fun () ->
          let counts = new_counts () in
          sessions := [];
          let prepared =
            span "logic.prepare" (fun () ->
                Orchestrate.prepare ~optimize:true ~budget:orchestrate_budget
                  network)
          in
          let baseline = List.hd prepared in
          let baseline_gates = Orchestrate.subject_gates baseline.Orchestrate.subject in
          if List.length prepared <> List.length r.Flow.evaluations then
            counts.mismatches <- "candidate count differs" :: counts.mismatches
          else
            List.iteri
              (fun idx ((p : Orchestrate.prepared), (ev : Flow.candidate_eval)) ->
                let gates = Orchestrate.subject_gates p.Orchestrate.subject in
                let guarded = idx > 0 && gates > baseline_gates in
                if p.Orchestrate.label <> ev.Flow.cand_label || gates <> ev.Flow.gates
                   || guarded <> ev.Flow.guarded
                then
                  counts.mismatches <-
                    (ev.Flow.cand_label ^ ": front end differs") :: counts.mismatches;
                match ev.Flow.result with
                | Some (o, _) when not guarded ->
                  (match
                     span "verify.equiv" (fun () ->
                         Equiv.check
                           ~rng:(Rng.create (seed + 7919 + idx))
                           (Equiv.of_network baseline.Orchestrate.network)
                           (Equiv.of_subject p.Orchestrate.subject))
                   with
                  | Ok () -> ()
                  | Error _ ->
                    counts.mismatches <-
                      (ev.Flow.cand_label ^ ": candidate miter fails") :: counts.mismatches);
                  let b = built_of_subject ~seed p.Orchestrate.subject in
                  sessions := b.session :: !sessions;
                  replay counts ~label:ev.Flow.cand_label b o.Flow.iterations
                | _ -> ())
              (List.combine prepared r.Flow.evaluations);
          counts)
    in
    no_serve report;
    trace_report report ~counts ~coverage ~overhead
      ~stats:(List.map snd (searched r))
      ~sessions:!sessions ~gates:r.Flow.best.Flow.gates
      ~violations:
        (match g.qor with Some q -> float_of_int q.violations | None -> 0.0)
  end
