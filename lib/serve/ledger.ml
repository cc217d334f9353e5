module Fsutil = Cals_util.Fsutil
module Fuzz = Cals_verify.Fuzz
module Metrics = Cals_telemetry.Metrics

let log_src = Logs.Src.create "cals.serve" ~doc:"Batch mapping service"

module Log = (val Logs.src_log log_src : Logs.LOG)

let m_submitted =
  Metrics.counter ~help:"Jobs admitted to the service queue"
    "serve_jobs_submitted"

let m_completed =
  Metrics.counter ~help:"Jobs that completed and wrote artifacts"
    "serve_jobs_completed"

let m_retried =
  Metrics.counter ~help:"Faulted runs sent back for retry" "serve_jobs_retried"

let m_quarantined =
  Metrics.counter ~help:"Jobs quarantined after the retry budget"
    "serve_jobs_quarantined"

let m_timeouts =
  Metrics.counter ~help:"Runs cancelled by their deadline" "serve_job_timeouts"

let m_shed =
  Metrics.counter ~help:"Jobs shed by per-worker queue backpressure"
    "serve_shard_shed"

let m_restarts =
  Metrics.counter ~help:"Worker processes respawned after a crash"
    "serve_shard_worker_restarts"

let m_queue_depth = Metrics.gauge ~help:"Queued jobs" "serve_queue_depth"

let m_degradation =
  Metrics.gauge ~help:"Degradation ladder step (0/1/2/3)"
    "serve_degradation_level"

let m_job_seconds =
  Metrics.histogram ~help:"Wall seconds per completed job"
    ~buckets:[| 0.01; 0.05; 0.25; 1.0; 5.0; 30.0 |]
    "serve_job_seconds"

type summary = {
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

type t = {
  out_dir : string;
  fleet : bool;
  high_watermark : int;
  overload_watermark : int;
  triage_watermark : int;
  enqueue : t -> Job.t -> unit;
  mutable auto_id : int;
  mutable submitted : int;
  mutable completed : int;
  mutable quarantined : int;
  mutable retries : int;
  mutable timeouts : int;
  mutable parse_errors : int;
  mutable shed : int;
  mutable restarts : int;
  mutable started : float option;
}

let create ~out_dir ~fleet ~high_watermark ~overload_watermark
    ~triage_watermark ~enqueue =
  {
    out_dir;
    fleet;
    high_watermark;
    overload_watermark;
    triage_watermark;
    enqueue;
    auto_id = 0;
    submitted = 0;
    completed = 0;
    quarantined = 0;
    retries = 0;
    timeouts = 0;
    parse_errors = 0;
    shed = 0;
    restarts = 0;
    started = None;
  }

let quarantine_dir t name =
  Filename.concat (Filename.concat t.out_dir "quarantine") (Fsutil.sanitize name)

(* ------------------------- admission ------------------------- *)

let submit t (spec : Proto.spec) =
  let spec =
    if spec.Proto.id <> "" then spec
    else begin
      t.auto_id <- t.auto_id + 1;
      { spec with Proto.id = Printf.sprintf "job-%04d" t.auto_id }
    end
  in
  t.submitted <- t.submitted + 1;
  Metrics.incr m_submitted;
  Log.debug (fun m ->
      m "admitted %s (%s)" spec.Proto.id (Proto.design_key spec));
  t.enqueue t (Job.create ~now:(Unix.gettimeofday ()) spec);
  spec.Proto.id

let submit_line t ~source line =
  let trimmed = String.trim line in
  if trimmed = "" || trimmed.[0] = '#' then Ok None
  else
    match Proto.spec_of_string ~default_id:"" trimmed with
    | Ok spec -> Ok (Some (submit t spec))
    | Error err ->
      t.parse_errors <- t.parse_errors + 1;
      Fsutil.write_file
        (Filename.concat (quarantine_dir t source)
           (Printf.sprintf "parse-%03d.txt" t.parse_errors))
        (Printf.sprintf "source: %s\nerror: %s\nline: %s\n" source err trimmed);
      Log.warn (fun m -> m "rejected job line from %s: %s" source err);
      Error err

let load_spool t ~dir =
  if not (Sys.file_exists dir && Sys.is_directory dir) then 0
  else begin
    let files =
      Sys.readdir dir |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort String.compare
    in
    let before = t.submitted in
    List.iter
      (fun file ->
        let path = Filename.concat dir file in
        match Fsutil.read_lines path with
        | lines ->
          (try Sys.remove path with Sys_error _ -> ());
          List.iter (fun l -> ignore (submit_line t ~source:file l)) lines
        | exception Sys_error err ->
          Log.warn (fun m -> m "skipping spool file %s: %s" path err))
      files;
    t.submitted - before
  end

let level t ~depth =
  let level =
    if depth >= t.triage_watermark then 3
    else if depth >= t.overload_watermark then 2
    else if depth >= t.high_watermark then 1
    else 0
  in
  Metrics.set m_queue_depth (float_of_int depth);
  Metrics.set m_degradation (float_of_int level);
  level

(* ------------------------- outcomes ------------------------- *)

let complete t (job : Job.t) ~wall_s =
  job.Job.status <- Job.Done;
  t.completed <- t.completed + 1;
  Metrics.incr m_completed;
  Metrics.observe m_job_seconds wall_s

let fault_stage_detail = function
  | Job.Timed_out d -> ("deadline", Printf.sprintf "exceeded %.3fs budget" d)
  | Job.Violation { stage; detail } -> (stage, detail)
  | Job.Crashed detail -> ("crash", detail)

let write_quarantine t (job : Job.t) fault =
  let spec = job.Job.spec in
  let dir = quarantine_dir t spec.Proto.id in
  Fsutil.mkdir_p dir;
  (* The spec itself is respoolable: drop job.json back in the spool to
     retry after a fix. *)
  Fsutil.write_file
    (Filename.concat dir "job.json")
    (Proto.print_json (Proto.spec_to_json spec) ^ "\n");
  Fsutil.write_file
    (Filename.concat dir "failure.txt")
    (Printf.sprintf "job: %s\nattempts: %d\nfault: %s\n" spec.Proto.id
       job.Job.attempts
       (Job.fault_to_string fault));
  match spec.Proto.input with
  | Proto.Workload params ->
    let stage, detail = fault_stage_detail fault in
    Fuzz.write_reproducer
      ~path:(Filename.concat dir "reproducer.txt")
      { Fuzz.params; stage; detail; shrink_steps = 0 }
  | Proto.Blif _ | Proto.Preset _ -> ()

let quarantine t (job : Job.t) fault =
  job.Job.status <- Job.Quarantined fault;
  t.quarantined <- t.quarantined + 1;
  Metrics.incr m_quarantined;
  write_quarantine t job fault;
  Log.warn (fun m ->
      m "%s quarantined after %d attempts: %s" job.Job.spec.Proto.id
        job.Job.attempts (Job.fault_to_string fault))

let shed t (job : Job.t) fault =
  job.Job.status <- Job.Quarantined fault;
  t.shed <- t.shed + 1;
  Metrics.incr m_shed;
  write_quarantine t job fault;
  Log.warn (fun m ->
      m "shed %s: %s" job.Job.spec.Proto.id (Job.fault_to_string fault))

let fault t queue (job : Job.t) fault =
  (match fault with
  | Job.Timed_out _ ->
    t.timeouts <- t.timeouts + 1;
    Metrics.incr m_timeouts
  | Job.Violation _ | Job.Crashed _ -> ());
  let verdict = Queue.record_fault queue ~now:(Unix.gettimeofday ()) job fault in
  (match verdict with
  | `Retry ->
    t.retries <- t.retries + 1;
    Metrics.incr m_retried;
    Log.info (fun m ->
        m "%s faulted (%s), retry %d queued" job.Job.spec.Proto.id
          (Job.fault_to_string fault) job.Job.attempts)
  | `Quarantine -> quarantine t job fault);
  verdict

let restarted t =
  t.restarts <- t.restarts + 1;
  Metrics.incr m_restarts

(* ------------------------- the drain ------------------------- *)

let start t =
  if t.started <> None then invalid_arg "drain: already drained";
  Fsutil.mkdir_p t.out_dir;
  t.started <- Some (Unix.gettimeofday ())

let summary_json (s : summary) ~fleet =
  let num n = Proto.Num (float_of_int n) in
  Proto.Obj
    ([
       ("submitted", num s.submitted);
       ("completed", num s.completed);
       ("quarantined", num s.quarantined);
       ("retries", num s.retries);
       ("timeouts", num s.timeouts);
       ("parse_errors", num s.parse_errors);
       ("wall_s", Proto.Num s.wall_s);
     ]
    @
    if fleet then
      [ ("shard", Proto.Obj [ ("shed", num s.shed); ("restarts", num s.restarts) ]) ]
    else [])

let finish t =
  let t0 = Option.value t.started ~default:(Unix.gettimeofday ()) in
  let s =
    {
      submitted = t.submitted;
      completed = t.completed;
      quarantined = t.quarantined;
      retries = t.retries;
      timeouts = t.timeouts;
      parse_errors = t.parse_errors;
      shed = t.shed;
      restarts = t.restarts;
      wall_s = Unix.gettimeofday () -. t0;
    }
  in
  let line = Proto.print_json (summary_json s ~fleet:t.fleet) ^ "\n" in
  Fsutil.write_file (Filename.concat t.out_dir "summary.json") line;
  Log.info (fun m ->
      m "drained: %d completed, %d quarantined, %d retries, %d shed, %d \
         restarts in %.2fs"
        s.completed s.quarantined s.retries s.shed s.restarts s.wall_s);
  (s, line)
