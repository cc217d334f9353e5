module Subject = Cals_netlist.Subject
module Mapped = Cals_netlist.Mapped
module Floorplan = Cals_place.Floorplan
module Placement = Cals_place.Placement
module Congestion = Cals_route.Congestion
module Estimate = Cals_estimate.Estimate
module Flow = Cals_core.Flow
module Incremental = Cals_core.Incremental
module Sta = Cals_sta.Sta
module Check = Cals_verify.Check
module Fuzz = Cals_verify.Fuzz
module Metrics = Cals_telemetry.Metrics
module Span = Cals_telemetry.Span
module Cancel = Cals_util.Cancel

let log_src = Logs.Src.create "cals.serve" ~doc:"Batch mapping service"

module Log = (val Logs.src_log log_src : Logs.LOG)

let library = Cals_cell.Stdlib_018.library
let geometry = Cals_cell.Library.geometry library
let wire = Cals_cell.Library.wire library

let m_degraded =
  Metrics.counter ~help:"Runs dispatched under a degradation level > 0"
    "serve_jobs_degraded"

let m_triaged =
  Metrics.counter
    ~help:"Runs dispatched estimator-only (degradation level 3)"
    "serve_jobs_triaged"

type config = {
  jobs : int;
  out_dir : string;
  default_deadline_s : float option;
  max_attempts : int;
  backoff_s : float;
  high_watermark : int;
  overload_watermark : int;
  triage_watermark : int;
  degraded_k_points : int;
  watch : bool;
  tick_s : float;
  cache_dir : string option;
}

let default_config =
  {
    jobs = 1;
    out_dir = "cals-serve-out";
    default_deadline_s = None;
    max_attempts = 3;
    backoff_s = 0.05;
    high_watermark = 8;
    overload_watermark = 16;
    triage_watermark = 32;
    degraded_k_points = 6;
    watch = false;
    tick_s = 0.1;
    cache_dir = None;
  }

type summary = Ledger.summary = {
  submitted : int;
  completed : int;
  quarantined : int;
  retries : int;
  timeouts : int;
  parse_errors : int;
  shed : int;
  restarts : int;
  wall_s : float;
}

(* Everything about one distinct circuit that K, checks and deadlines do
   not change — shared by every job with the same design key. The session
   is warmed at construction, so every job's maps hit. *)
type design = {
  subject : Subject.t;
  floorplan : Floorplan.t;
  positions : Cals_util.Geom.point array;
  session : Incremental.session;
  preloaded : int option;
      (* Match sets installed from the persistent store before warming;
         [None] when the scheduler runs without a cache dir. *)
}

type t = {
  config : config;
  queue : Queue.t;
  designs : (string, design) Hashtbl.t;
  ledger : Ledger.t;
}

let create config =
  if config.jobs <> 1 then
    invalid_arg
      (Printf.sprintf
         "Scheduler.create: jobs = %d; a scheduler runs one job at a time \
          (a Shard fleet runs jobs in parallel)"
         config.jobs);
  let queue =
    Queue.create ~max_attempts:config.max_attempts ~backoff_s:config.backoff_s
      ()
  in
  {
    config;
    queue;
    designs = Hashtbl.create 16;
    ledger =
      Ledger.create ~out_dir:config.out_dir ~fleet:false
        ~high_watermark:config.high_watermark
        ~overload_watermark:config.overload_watermark
        ~triage_watermark:config.triage_watermark
        ~enqueue:(fun _ job -> Queue.push queue job);
  }

let ledger t = t.ledger

(* ------------------------- filesystem helpers ------------------------- *)

let mkdir_p = Cals_util.Fsutil.mkdir_p
let sanitize = Cals_util.Fsutil.sanitize
let write_file = Cals_util.Fsutil.write_file

let job_dir t (job : Job.t) =
  Filename.concat t.config.out_dir (sanitize job.Job.spec.Proto.id)

(* ------------------------- design cache ------------------------- *)

(* Raised by [build_design] when the job's circuit cannot be loaded;
   [run_job] turns it into [Job.Input_error]. *)
exception Bad_input of string

let network_of_input = function
  | Proto.Blif path ->
    Result.map_error (fun reason -> path ^ ": " ^ reason)
      (Cals_logic.Blif.load path)
  | Proto.Preset { name; scale; seed } -> (
    match List.assoc_opt name Cals_workload.Presets.named with
    | Some preset -> Ok (preset ~scale ~seed)
    (* Parsed specs name a known preset already ([Proto.input_of_json]
       checks the same table); only a spec built in code lands here. *)
    | None -> Error (Printf.sprintf "unknown preset %s" name))
  | Proto.Workload p ->
    let family =
      match p.Fuzz.family with
      | Fuzz.Pla -> `Pla
      | Fuzz.Multilevel -> `Multilevel
    in
    Ok
      (Cals_workload.Gen.of_fuzz ~family ~seed:p.Fuzz.seed
         ~inputs:p.Fuzz.inputs ~outputs:p.Fuzz.outputs ~size:p.Fuzz.size)

let placement_seed = function
  | Proto.Blif _ -> 1
  | Proto.Preset { seed; _ } -> seed
  | Proto.Workload p -> p.Fuzz.seed

let build_design ~cache_dir (spec : Proto.spec) =
  let key = Proto.design_key spec in
  Span.with_ ~cat:"serve" ~meta:key "serve.build_design" @@ fun () ->
  let network =
    match network_of_input spec.Proto.input with
    | Ok network -> network
    | Error reason -> raise (Bad_input reason)
  in
  let floorplan_of =
    Floorplan.for_subject ~utilization:spec.Proto.utilization ~geometry
  in
  let subject =
    match spec.Proto.orchestrate with
    | Some budget ->
      (* Orchestration is paid once per design key (jobs sharing the key
         share this build through the design cache) and selects the
         subject every job of the design then maps. *)
      let result =
        Flow.orchestrate ~budget ~optimize:spec.Proto.optimize
          ~t:(Option.value spec.Proto.timing ~default:0.0)
          ?k_schedule:spec.Proto.k_schedule ~network ~library ~floorplan_of
          ~seed:(placement_seed spec.Proto.input) ()
      in
      Log.info (fun m ->
          m "%s: orchestration selected %s (%d gates vs %d baseline)" key
            result.Flow.best.Flow.cand_label result.Flow.best.Flow.gates
            result.Flow.baseline.Flow.gates);
      result.Flow.best_subject
    | None ->
      if spec.Proto.optimize then Cals_logic.Optimize.script_area network
      else Cals_logic.Optimize.script_light network;
      Cals_logic.Decompose.subject_of_network network
  in
  let floorplan = floorplan_of subject in
  let rng = Cals_util.Rng.create (placement_seed spec.Proto.input + 1) in
  let positions = Placement.place_subject subject ~floorplan ~rng in
  let session = Incremental.create ~subject ~library ~positions () in
  (* Preload the match cache from the persistent store before warming:
     preloaded trees are skipped by [warm], so a populated store makes a
     restarted scheduler's match phase (the expensive part of a design
     build) a no-op. A cold, corrupt or version-skewed store file just
     leaves [preloaded] at 0 and the warm below does the work. *)
  let preloaded =
    Option.map
      (fun dir ->
        match Store.load ~dir ~key session with
        | Store.Loaded n ->
          Log.info (fun m -> m "%s: warmed %d match sets from the store" key n);
          n
        | Store.Cold reason ->
          (match reason with
          | Store.Absent -> ()
          | Store.Corrupt what ->
            Log.warn (fun m ->
                m "%s: store file unusable (%s), rebuilding cold" key what)
          | Store.Version_skew v ->
            Log.warn (fun m ->
                m "%s: store file has format version %d, rebuilding cold" key v)
          | Store.Key_mismatch ->
            Log.warn (fun m ->
                m "%s: store file belongs to another design, rebuilding cold"
                  key));
          0)
      cache_dir
  in
  Incremental.warm session;
  (match (cache_dir, preloaded) with
  | Some dir, Some n
    when n < (Incremental.stats session).Incremental.trees -> (
    match Store.save ~dir ~key session with
    | Ok bytes ->
      Log.debug (fun m -> m "%s: stored match cache (%d bytes)" key bytes)
    | Error msg ->
      Log.warn (fun m -> m "%s: could not store match cache: %s" key msg))
  | _ -> ());
  { subject; floorplan; positions; session; preloaded }

let get_design t spec =
  let key = Proto.design_key spec in
  match Hashtbl.find_opt t.designs key with
  | Some design -> design
  | None ->
    let design = build_design ~cache_dir:t.config.cache_dir spec in
    Hashtbl.add t.designs key design;
    design

(* ------------------------- degradation ladder ------------------------- *)

let degraded_checks level checks =
  match (level, checks) with
  | 0, c -> c
  | 1, Check.Full -> Check.Cheap
  | 1, c -> c
  | _, _ -> Check.Off

let cap_schedule t level schedule =
  if level < 2 then (schedule, false)
  else begin
    let cap = max 1 t.config.degraded_k_points in
    let rec take n = function
      | [] -> []
      | _ when n = 0 -> []
      | k :: rest -> k :: take (n - 1) rest
    in
    let capped = take cap schedule in
    (capped, List.length capped < List.length schedule)
  end

(* ------------------------- one run of one job ------------------------- *)

type run_metrics = {
  wall_s : float;
  iterations : int;
  accepted_k : float option;
  cells : int;
  cell_area : float;
  violations : int option;
  cache_hits : int;
  cache_misses : int;
  checks_run : Check.level;
  degrade_level : int;
  k_capped : bool;
  estimated : bool;
  critical_path_ns : float option;
      (* Post-route STA at the accepted K. [None] unless the job asked
         for timing AND the acceptance rode a real route at degradation
         level < 2 — degraded and triaged runs leave the timing fields
         absent rather than stale. *)
  real_routes : int;
      (* Iterations that paid a negotiated route (not estimator-skipped,
         not legalize-rejected). *)
  forecast_evals : int option;
      (* [Some] when the K search ran this job's ladder: its iterations
         ruled out without a route. *)
  store_preloaded : int option;
      (* Match sets this job's design preloaded from the persistent
         store; [None] without a cache dir. *)
}

type run_result = Success of run_metrics | Fault of Job.fault

(* Level 3 is the deepest rung: no job routes at all — acceptance is
   decided on the congestion forecast and the results are marked
   estimated. Cheaper than capping K points, because the capped schedule
   still pays one negotiated route per point. The rung walks the
   schedule in order under [Triage], against the cached session. Checks
   are always [Off] at this level (see [degraded_checks]). *)
let run_schedule ~cancel ~t ~design schedule =
  let { subject; floorplan; positions; session; _ } = design in
  let rec loop acc = function
    | [] -> (List.rev acc, None, None)
    | k :: rest ->
      let iteration, artifacts =
        Flow.evaluate_k ~estimate:Estimate.Triage ~session
          ~route_session:(Incremental.route_session session)
          ~t ~cancel ~subject ~library ~floorplan ~positions ~k ()
      in
      if Congestion.acceptable iteration.Flow.report then
        (List.rev (iteration :: acc), Some iteration, Some artifacts)
      else loop (iteration :: acc) rest
  in
  loop [] schedule

let json_of_option f = function Some v -> f v | None -> Proto.Null

let metrics_json (job : Job.t) (m : run_metrics) =
  let spec = job.Job.spec in
  let hit_rate =
    let total = m.cache_hits + m.cache_misses in
    if total = 0 then 0.0 else float_of_int m.cache_hits /. float_of_int total
  in
  Proto.Obj
    ([
       ("id", Proto.Str spec.Proto.id);
       ("design_key", Proto.Str (Proto.design_key spec));
      ("attempts", Proto.Num (float_of_int job.Job.attempts));
      ("wall_s", Proto.Num m.wall_s);
      ("iterations", Proto.Num (float_of_int m.iterations));
      ("accepted_k", json_of_option (fun k -> Proto.Num k) m.accepted_k);
      ("cells", Proto.Num (float_of_int m.cells));
      ("cell_area", Proto.Num m.cell_area);
      ( "violations",
        json_of_option (fun v -> Proto.Num (float_of_int v)) m.violations );
      ( "cache",
        Proto.Obj
          [
            ("hits", Proto.Num (float_of_int m.cache_hits));
            ("misses", Proto.Num (float_of_int m.cache_misses));
            ("hit_rate", Proto.Num hit_rate);
            ( "store_preloaded",
              json_of_option
                (fun n -> Proto.Num (float_of_int n))
                m.store_preloaded );
          ] );
      ("real_routes", Proto.Num (float_of_int m.real_routes));
      ( "adaptive",
        json_of_option
          (fun evals ->
            Proto.Obj [ ("forecast_evals", Proto.Num (float_of_int evals)) ])
          m.forecast_evals );
      ("checks", Proto.Str (Check.level_to_string m.checks_run));
      ( "degradation",
        Proto.Obj
          [
            ("level", Proto.Num (float_of_int m.degrade_level));
            ("checks_shed", Proto.Bool (m.checks_run <> spec.Proto.checks));
            ("k_capped", Proto.Bool m.k_capped);
            ("triage", Proto.Bool (m.degrade_level >= 3));
          ] );
      ("estimated", Proto.Bool m.estimated);
    ]
    @
    match (spec.Proto.timing, m.critical_path_ns) with
    | Some t, Some ns ->
      [
        ( "timing",
          Proto.Obj
            [
              ("t", Proto.Num t);
              ("critical_path_ns", Proto.Num ns);
              ("critical_path_ps", Proto.Num (1000.0 *. ns));
            ] );
      ]
    | _ -> [])

let write_success_artifacts t (job : Job.t) m mapped =
  let dir = job_dir t job in
  mkdir_p dir;
  write_file
    (Filename.concat dir "job.json")
    (Proto.print_json (Proto.spec_to_json job.Job.spec) ^ "\n");
  write_file
    (Filename.concat dir "metrics.json")
    (Proto.print_json (metrics_json job m) ^ "\n");
  match mapped with
  | Some mapped ->
    write_file (Filename.concat dir "mapped.v") (Mapped.to_verilog mapped)
  | None -> ()

let run_job t ~level (job : Job.t) =
  let spec = job.Job.spec in
  job.Job.attempts <- job.Job.attempts + 1;
  let t0 = Unix.gettimeofday () in
  let deadline =
    match spec.Proto.deadline_s with
    | Some _ as d -> d
    | None -> t.config.default_deadline_s
  in
  let cancel =
    match deadline with
    | None -> Cancel.create ()
    | Some d -> Cancel.create ~expires:(fun () -> Unix.gettimeofday () -. t0 > d) ()
  in
  try
    Span.with_ ~cat:"serve" ~meta:spec.Proto.id "serve.job" @@ fun () ->
    let design = get_design t spec in
    (* The job's lookups are the session's counts over the job, taken
       after the design's build so that its warm is not counted. *)
    let before = Incremental.stats design.session in
    let checks = degraded_checks level spec.Proto.checks in
    let schedule =
      Option.value spec.Proto.k_schedule ~default:Flow.default_k_schedule
    in
    let schedule, k_capped = cap_schedule t level schedule in
    let triage = level >= 3 in
    if triage then Metrics.incr m_triaged;
    let timing_t = Option.value spec.Proto.timing ~default:0.0 in
    let iterations, accepted, artifacts, forecast_evals =
      if triage then
        let iterations, accepted, artifacts =
          run_schedule ~cancel ~t:timing_t ~design schedule
        in
        (iterations, accepted, artifacts, None)
      else begin
        let outcome, astats =
          Flow.run_adaptive ~k_schedule:schedule ~checks ~t:timing_t ~cancel
            ~session:design.session ~positions:design.positions
            ~subject:design.subject ~library ~floorplan:design.floorplan
            ~rng:(Cals_util.Rng.create 0) ()
        in
        let artifacts =
          Option.map
            (fun m -> (m, outcome.Flow.placement, outcome.Flow.routing))
            outcome.Flow.mapped
        in
        ( outcome.Flow.iterations,
          outcome.Flow.accepted,
          artifacts,
          Some astats.Flow.forecast_evals )
      end
    in
    let real_routes =
      List.length
        (List.filter
           (fun (it : Flow.iteration) ->
             (not it.Flow.estimated) && it.Flow.hpwl_um < infinity)
           iterations)
    in
    let mapped = Option.map (fun (m, _, _) -> m) artifacts in
    let critical_path_ns =
      match (spec.Proto.timing, accepted, artifacts) with
      | Some _, Some it, Some (mapped, Some placement, Some routing)
        when level < 2 && not it.Flow.estimated ->
        let report =
          Sta.analyze ~net_length_um:routing.Cals_route.Router.net_length_um
            mapped ~wire ~placement
        in
        Some report.Sta.critical.Sta.arrival_ns
      | _ -> None
    in
    let after = Incremental.stats design.session in
    let m =
      {
        wall_s = Unix.gettimeofday () -. t0;
        iterations = List.length iterations;
        accepted_k = Option.map (fun it -> it.Flow.k) accepted;
        cells =
          (match accepted with Some it -> it.Flow.cells | None -> 0);
        cell_area =
          (match accepted with Some it -> it.Flow.cell_area | None -> 0.0);
        violations =
          Option.map
            (fun it -> it.Flow.report.Congestion.violations)
            accepted;
        cache_hits = after.Incremental.hits - before.Incremental.hits;
        cache_misses = after.Incremental.misses - before.Incremental.misses;
        checks_run = checks;
        degrade_level = level;
        k_capped;
        estimated =
          (match accepted with
          | Some it -> it.Flow.estimated
          | None -> false);
        critical_path_ns;
        real_routes;
        forecast_evals;
        store_preloaded = design.preloaded;
      }
    in
    write_success_artifacts t job m mapped;
    Success m
  with
  | Cancel.Cancelled _ ->
    Fault (Job.Timed_out (Option.value deadline ~default:0.0))
  | Check.Violation { stage; detail } -> Fault (Job.Violation { stage; detail })
  | Bad_input reason -> Fault (Job.Input_error reason)
  | exn -> Fault (Job.Crashed (Printexc.to_string exn))

(* ------------------------- the drain loop ------------------------- *)

let apply_result t (job : Job.t) = function
  | Success m ->
    Ledger.complete t.ledger job ~wall_s:m.wall_s;
    Log.info (fun f ->
        f "%s done in %.2fs (accepted K=%s, cache hit rate %.0f%%)"
          job.Job.spec.Proto.id m.wall_s
          (match m.accepted_k with
          | Some k -> Printf.sprintf "%g" k
          | None -> "none")
          (100.0
          *.
          let total = m.cache_hits + m.cache_misses in
          if total = 0 then 0.0
          else float_of_int m.cache_hits /. float_of_int total))
  | Fault fault -> ignore (Ledger.fault t.ledger t.queue job fault)

let drain t ?spool () =
  Ledger.start t.ledger;
  let poll () =
    Option.iter (fun dir -> ignore (Ledger.load_spool t.ledger ~dir)) spool
  in
  poll ();
  let rec loop () =
    if t.config.watch then poll ();
    let now = Unix.gettimeofday () in
    let depth = Queue.depth t.queue in
    let level = Ledger.level t.ledger ~depth in
    match Queue.take_ready t.queue ~now ~max:max_int with
    | [] -> (
      match Queue.next_gate t.queue ~now with
      | Some wait ->
        (* Jobs exist but all are backing off: sleep up to their gate. *)
        Unix.sleepf (Float.max 0.001 (Float.min wait t.config.tick_s));
        loop ()
      | None ->
        if t.config.watch then begin
          Unix.sleepf t.config.tick_s;
          loop ()
        end)
    | batch ->
      if level > 0 then begin
        Metrics.add m_degraded (List.length batch);
        Log.warn (fun f ->
            f "queue depth %d: degradation level %d for this round" depth
              level)
      end;
      Log.info (fun f -> f "round: %d jobs" (List.length batch));
      List.iter (fun job -> apply_result t job (run_job t ~level job)) batch;
      loop ()
  in
  loop ();
  fst (Ledger.finish t.ledger)
