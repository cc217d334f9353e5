(* The batch service: protocol parsing, queue policy, and the acceptance
   drain — 8+ mixed jobs over 4 domains with one injected timeout and one
   injected failure, quarantine with reproducers, repeated-design cache
   hits visible in the metrics artifacts, and a clean shutdown. *)

module Proto = Cals_serve.Proto
module Job = Cals_serve.Job
module Queue = Cals_serve.Queue
module Scheduler = Cals_serve.Scheduler
module Shard = Cals_serve.Shard
module Check = Cals_verify.Check
module Fuzz = Cals_verify.Fuzz

let submit scheduler spec =
  ignore (Cals_serve.Ledger.submit (Scheduler.ledger scheduler) spec)

(* ------------------------- helpers ------------------------- *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path =
  match Proto.parse_json (read_file path) with
  | Ok json -> json
  | Error e -> Alcotest.failf "%s: malformed JSON: %s" path e

let num_member name json =
  match Proto.member name json with
  | Some (Proto.Num n) -> n
  | _ -> Alcotest.failf "missing numeric field %s" name

(* Unique per process, so a second run in the same directory never
   finds the first run's artifacts or stores. *)
let fresh_out =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "serve-test-out-%d-%d" (Unix.getpid ()) !n

let workload_spec ?(id = "") ?(checks = Check.Off) ?deadline_s ?k_schedule
    ?timing ~seed () =
  {
    Proto.id;
    input =
      Proto.Workload
        { Fuzz.seed; family = Fuzz.Pla; inputs = 6; outputs = 3; size = 12 };
    k_schedule;
    checks;
    utilization = 0.55;
    optimize = false;
    timing;
    orchestrate = None;
    deadline_s;
  }

(* ------------------------- proto ------------------------- *)

let test_json_roundtrip () =
  let cases =
    [
      {|{"id":"a","blif":"x.blif","checks":"cheap","deadline_s":2.5}|};
      {|{"preset":"spla","scale":0.05,"seed":7,"optimize":true}|};
      {|{"workload":{"family":"pla","seed":3,"inputs":6,"outputs":3,"size":12},"k_schedule":[0,0.001]}|};
    ]
  in
  List.iter
    (fun line ->
      match Proto.spec_of_string ~default_id:"d" line with
      | Error e -> Alcotest.failf "parse %s: %s" line e
      | Ok spec -> (
        let printed = Proto.print_json (Proto.spec_to_json spec) in
        match Proto.spec_of_string ~default_id:"d" printed with
        | Error e -> Alcotest.failf "re-parse %s: %s" printed e
        | Ok spec' ->
          Alcotest.(check string)
            "design key survives a round-trip" (Proto.design_key spec)
            (Proto.design_key spec');
          Alcotest.(check string) "id survives" spec.Proto.id spec'.Proto.id))
    cases

let test_json_errors () =
  let bad =
    [
      "not json";
      "{}";
      {|{"blif":"a","preset":"spla"}|};
      {|{"preset":"nope"}|};
      {|{"blif":"a","deadline_s":-1}|};
      {|{"workload":{"family":"pla"}}|};
      {|{"blif":"a"} trailing|};
      {|{"blif":"a","utilization":0}|};
      {|{"blif":"a","utilization":1.5}|};
      {|{"blif":"a","utilization":-0.5}|};
      {|{"blif":"a","k_schedule":[0,-0.001]}|};
      {|{"blif":"a","k_schedule":[0,1e999]}|};
    ]
  in
  List.iter
    (fun line ->
      match Proto.spec_of_string ~default_id:"d" line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed job %s" line)
    bad

let test_design_key () =
  let base = workload_spec ~seed:3 () in
  let same =
    { base with Proto.id = "other"; checks = Check.Full; deadline_s = Some 9.0 }
  in
  Alcotest.(check string)
    "id/checks/deadline do not change the circuit" (Proto.design_key base)
    (Proto.design_key same);
  let different = workload_spec ~seed:4 () in
  Alcotest.(check bool)
    "seed changes the circuit" false
    (String.equal (Proto.design_key base) (Proto.design_key different))

(* A timing-enabled job spec round-trips through the JSON proto, and the
   timing weight never leaks into the design key (timing and non-timing
   jobs share one warmed session). *)
let test_timing_proto () =
  let parse line =
    match Proto.spec_of_string ~default_id:"d" line with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "parse %s: %s" line e
  in
  let wl =
    {|"workload":{"family":"pla","seed":3,"inputs":6,"outputs":3,"size":12}|}
  in
  let explicit = parse (Printf.sprintf {|{%s,"timing":12.5}|} wl) in
  Alcotest.(check (option (float 1e-9)))
    "explicit weight parsed" (Some 12.5) explicit.Proto.timing;
  let on = parse (Printf.sprintf {|{%s,"timing":true}|} wl) in
  Alcotest.(check (option (float 1e-9)))
    "timing:true means the fitted default"
    (Some Cals_core.Mapper.default_timing_weight)
    on.Proto.timing;
  let off = parse (Printf.sprintf {|{%s,"timing":false}|} wl) in
  Alcotest.(check (option (float 1e-9))) "timing:false is off" None
    off.Proto.timing;
  (* Round-trip: print then re-parse preserves the weight. *)
  let printed = Proto.print_json (Proto.spec_to_json explicit) in
  let again = parse printed in
  Alcotest.(check (option (float 1e-9)))
    "weight survives a round-trip" explicit.Proto.timing again.Proto.timing;
  Alcotest.(check string) "design key ignores the weight"
    (Proto.design_key off) (Proto.design_key explicit);
  List.iter
    (fun line ->
      match Proto.spec_of_string ~default_id:"d" line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed timing %s" line)
    [
      Printf.sprintf {|{%s,"timing":0}|} wl;
      Printf.sprintf {|{%s,"timing":-2}|} wl;
      Printf.sprintf {|{%s,"timing":"fast"}|} wl;
    ]

(* An orchestrate-enabled job spec round-trips, [true] means the default
   budget, and — unlike the timing weight — the budget IS part of the
   design key: orchestrated and plain jobs must not share a session. *)
let test_orchestrate_proto () =
  let parse line =
    match Proto.spec_of_string ~default_id:"d" line with
    | Ok spec -> spec
    | Error e -> Alcotest.failf "parse %s: %s" line e
  in
  let wl =
    {|"workload":{"family":"pla","seed":3,"inputs":6,"outputs":3,"size":12}|}
  in
  let explicit = parse (Printf.sprintf {|{%s,"orchestrate":5}|} wl) in
  Alcotest.(check (option int))
    "explicit budget parsed" (Some 5) explicit.Proto.orchestrate;
  let on = parse (Printf.sprintf {|{%s,"orchestrate":true}|} wl) in
  Alcotest.(check (option int))
    "orchestrate:true means the default budget"
    (Some Cals_logic.Orchestrate.default_budget)
    on.Proto.orchestrate;
  let off = parse (Printf.sprintf {|{%s,"orchestrate":false}|} wl) in
  Alcotest.(check (option int)) "orchestrate:false is off" None
    off.Proto.orchestrate;
  let printed = Proto.print_json (Proto.spec_to_json explicit) in
  let again = parse printed in
  Alcotest.(check (option int))
    "budget survives a round-trip" explicit.Proto.orchestrate
    again.Proto.orchestrate;
  Alcotest.(check bool)
    "design key separates orchestrated from plain jobs" false
    (String.equal (Proto.design_key off) (Proto.design_key explicit));
  List.iter
    (fun line ->
      match Proto.spec_of_string ~default_id:"d" line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed orchestrate %s" line)
    [
      Printf.sprintf {|{%s,"orchestrate":0}|} wl;
      Printf.sprintf {|{%s,"orchestrate":-3}|} wl;
      Printf.sprintf {|{%s,"orchestrate":"yes"}|} wl;
    ]

(* ------------------------- queue ------------------------- *)

let test_queue_policy () =
  let q = Queue.create ~max_attempts:2 ~backoff_s:10.0 () in
  let job = Job.create ~now:0.0 (workload_spec ~id:"q1" ~seed:3 ()) in
  Queue.push q job;
  Alcotest.(check int) "depth" 1 (Queue.depth q);
  (match Queue.take_ready q ~now:1.0 ~max:5 with
  | [ j ] -> Alcotest.(check bool) "running" true (j.Job.status = Job.Running)
  | other -> Alcotest.failf "took %d jobs" (List.length other));
  job.Job.attempts <- 1;
  (match Queue.record_fault q ~now:1.0 job (Job.Crashed "boom") with
  | `Retry -> ()
  | `Quarantine -> Alcotest.fail "first fault must retry");
  Alcotest.(check bool) "behind its gate" true
    (Queue.take_ready q ~now:1.0 ~max:5 = []);
  (match Queue.next_gate q ~now:1.0 with
  | Some wait -> Alcotest.(check bool) "gate ~10s out" true (wait > 5.0)
  | None -> Alcotest.fail "expected a backoff gate");
  (match Queue.take_ready q ~now:12.0 ~max:5 with
  | [ j ] ->
    j.Job.attempts <- 2;
    (match Queue.record_fault q ~now:12.0 j (Job.Crashed "boom") with
    | `Quarantine ->
      Alcotest.(check bool) "quarantined status" true
        (match j.Job.status with Job.Quarantined _ -> true | _ -> false)
    | `Retry -> Alcotest.fail "budget spent, must quarantine")
  | other -> Alcotest.failf "took %d jobs after the gate" (List.length other));
  Alcotest.(check int) "quarantined jobs leave the queue" 0 (Queue.depth q)

(* ------------------------- the acceptance drain ------------------------- *)

(* 9 mixed jobs over 4 domains: six repeated-design workload jobs (two
   distinct circuits), one good preset job, one injected timeout (a
   workload job with a hopeless deadline — its quarantine must carry a
   replayable reproducer) and one injected failure (a BLIF path that does
   not exist). *)
let test_drain_mixed () =
  let out = fresh_out () in
  let config =
    {
      Scheduler.default_config with
      Scheduler.jobs = 4;
      out_dir = out;
      backoff_s = 0.005;
      max_attempts = 2;
    }
  in
  let scheduler = Scheduler.create config in
  for i = 0 to 5 do
    submit scheduler
      (workload_spec
         ~id:(Printf.sprintf "wl-%d" i)
         ~seed:(3 + (i mod 2))
         ~checks:Check.Cheap
         ~k_schedule:[ 0.0; 0.001 ]
         ())
  done;
  submit scheduler
    {
      Proto.id = "preset-ok";
      input = Proto.Preset { name = "spla"; scale = 0.02; seed = 5 };
      k_schedule = Some [ 0.0; 0.001 ];
      checks = Check.Off;
      utilization = 0.55;
      optimize = false;
      timing = None;
      orchestrate = None;
      deadline_s = None;
    };
  submit scheduler
    (workload_spec ~id:"too-slow" ~seed:9 ~deadline_s:1e-4 ());
  submit scheduler
    {
      Proto.id = "no-such-file";
      input = Proto.Blif "does-not-exist.blif";
      k_schedule = None;
      checks = Check.Off;
      utilization = 0.55;
      optimize = false;
      timing = None;
      orchestrate = None;
      deadline_s = None;
    };
  let s = Scheduler.drain scheduler () in
  Alcotest.(check int) "submitted" 9 s.Scheduler.submitted;
  Alcotest.(check int) "completed" 7 s.Scheduler.completed;
  Alcotest.(check int) "quarantined" 2 s.Scheduler.quarantined;
  (* Only the timeout retries: the missing file is an input error,
     quarantined on its first attempt. *)
  Alcotest.(check int) "one retry per attempt past the first" 1
    s.Scheduler.retries;
  Alcotest.(check bool) "timeouts counted" true (s.Scheduler.timeouts >= 1);
  (* Completed jobs wrote their artifacts. *)
  List.iter
    (fun id ->
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s exists" id f)
            true
            (Sys.file_exists (Filename.concat (Filename.concat out id) f)))
        [ "job.json"; "metrics.json"; "mapped.v" ])
    [ "wl-0"; "wl-5"; "preset-ok" ];
  (* A repeated-design job served its matches from the shared session. *)
  let metrics = parse_file (Filename.concat out "wl-5/metrics.json") in
  (match Proto.member "cache" metrics with
  | Some cache ->
    Alcotest.(check bool)
      "repeated design has a positive cache hit rate" true
      (num_member "hit_rate" cache > 0.0)
  | None -> Alcotest.fail "metrics.json has no cache object");
  (* Each job counts its own lookups, however the jobs of its design
     interleave on the four domains: equal jobs read equal counts. *)
  let lookups id =
    match Proto.member "cache" (parse_file (Filename.concat out (id ^ "/metrics.json"))) with
    | Some cache -> (num_member "hits" cache, num_member "misses" cache)
    | None -> Alcotest.failf "%s: metrics.json has no cache object" id
  in
  List.iter
    (fun i ->
      Alcotest.(check (pair (float 0.0) (float 0.0)))
        (Printf.sprintf "wl-%d counts the lookups of wl-%d" (i + 2) i)
        (lookups (Printf.sprintf "wl-%d" i))
        (lookups (Printf.sprintf "wl-%d" (i + 2))))
    [ 0; 1; 2; 3 ];
  (* The timed-out workload job quarantined with a replayable reproducer. *)
  let qdir = Filename.concat out "quarantine" in
  Alcotest.(check bool) "timeout quarantined" true
    (Sys.file_exists (Filename.concat qdir "too-slow/failure.txt"));
  let repro = Filename.concat qdir "too-slow/reproducer.txt" in
  Alcotest.(check bool) "reproducer written" true (Sys.file_exists repro);
  let params = Fuzz.read_reproducer repro in
  Alcotest.(check int) "reproducer replays the job's circuit" 9
    params.Fuzz.seed;
  (* The bad BLIF quarantined after one attempt with a respoolable job
     spec. *)
  (match
     String.split_on_char '\n'
       (read_file (Filename.concat qdir "no-such-file/failure.txt"))
   with
  | _ :: attempts :: fault :: _ ->
    Alcotest.(check string) "one attempt" "attempts: 1" attempts;
    Alcotest.(check bool) "input error" true
      (String.starts_with ~prefix:"fault: input error: " fault)
  | _ -> Alcotest.fail "failure.txt has fewer than three lines");
  let bad_spec = parse_file (Filename.concat qdir "no-such-file/job.json") in
  (match Proto.spec_of_json ~default_id:"" bad_spec with
  | Ok spec -> Alcotest.(check string) "respoolable" "no-such-file" spec.Proto.id
  | Error e -> Alcotest.failf "quarantined job.json does not re-parse: %s" e);
  (* summary.json agrees with the returned summary. *)
  let summary = parse_file (Filename.concat out "summary.json") in
  Alcotest.(check int) "summary.json completed" 7
    (int_of_float (num_member "completed" summary))

(* A spec built in code skips the parser's preset check; the scheduler
   still refuses the unknown preset as an input error, quarantined on its
   first attempt. *)
let test_unknown_preset () =
  let out = fresh_out () in
  let scheduler =
    Scheduler.create
      { Scheduler.default_config with Scheduler.out_dir = out; max_attempts = 3 }
  in
  submit scheduler
    {
      Proto.id = "bad-preset";
      input = Proto.Preset { name = "zzz"; scale = 0.02; seed = 1 };
      k_schedule = Some [ 0.0 ];
      checks = Check.Off;
      utilization = 0.55;
      optimize = false;
      timing = None;
      orchestrate = None;
      deadline_s = None;
    };
  let s = Scheduler.drain scheduler () in
  Alcotest.(check int) "quarantined" 1 s.Scheduler.quarantined;
  Alcotest.(check int) "never retried" 0 s.Scheduler.retries;
  match
    String.split_on_char '\n'
      (read_file (Filename.concat out "quarantine/bad-preset/failure.txt"))
  with
  | _ :: attempts :: fault :: _ ->
    Alcotest.(check string) "one attempt" "attempts: 1" attempts;
    Alcotest.(check bool) "input error" true
      (String.starts_with ~prefix:"fault: input error: " fault)
  | _ -> Alcotest.fail "failure.txt has fewer than three lines"

(* Job ids are file names under [out_dir]: a completed job named ".."
   and a quarantined one named "." keep every artifact inside it, each
   in a directory of its own. *)
let test_dot_ids () =
  let parent = fresh_out () in
  let out = Filename.concat parent "out" in
  let scheduler =
    Scheduler.create
      { Scheduler.default_config with Scheduler.jobs = 1; out_dir = out }
  in
  submit scheduler (workload_spec ~id:".." ~seed:3 ~k_schedule:[ 0.0 ] ());
  submit scheduler
    {
      (workload_spec ~id:"." ~seed:3 ()) with
      Proto.input = Proto.Preset { name = "zzz"; scale = 0.02; seed = 1 };
    };
  let s = Scheduler.drain scheduler () in
  Alcotest.(check int) "completed" 1 s.Scheduler.completed;
  Alcotest.(check int) "quarantined" 1 s.Scheduler.quarantined;
  Alcotest.(check (array string)) "nothing beside out_dir" [| "out" |]
    (Sys.readdir parent);
  let job_dir = Filename.concat out (Cals_util.Fsutil.sanitize "..") in
  let quarantine = Filename.concat out "quarantine" in
  List.iter
    (fun (dir, file) ->
      Alcotest.(check bool) (file ^ " in its job directory") true
        (Sys.file_exists (Filename.concat dir file));
      Alcotest.(check bool) (file ^ " not loose in its parent") false
        (Sys.file_exists (Filename.concat (Filename.dirname dir) file)))
    [
      (job_dir, "job.json");
      (job_dir, "metrics.json");
      (job_dir, "mapped.v");
      (Filename.concat quarantine (Cals_util.Fsutil.sanitize "."), "failure.txt");
    ]

(* An undegraded timing job ships the post-route critical path in its
   artifact metrics; a twin without timing carries no timing fields at
   all (and both ride the same warmed design session). *)
let test_timing_metrics () =
  let out = fresh_out () in
  let config =
    { Scheduler.default_config with Scheduler.jobs = 1; out_dir = out }
  in
  let scheduler = Scheduler.create config in
  submit scheduler
    (workload_spec ~id:"plain" ~seed:3 ~k_schedule:[ 0.0; 0.001 ] ());
  submit scheduler
    (workload_spec ~id:"timed" ~seed:3 ~timing:50.0
       ~k_schedule:[ 0.0; 0.001 ] ());
  let s = Scheduler.drain scheduler () in
  Alcotest.(check int) "both complete" 2 s.Scheduler.completed;
  let plain = parse_file (Filename.concat out "plain/metrics.json") in
  Alcotest.(check bool) "no timing fields without the request" true
    (Proto.member "timing" plain = None);
  let timed = parse_file (Filename.concat out "timed/metrics.json") in
  (match Proto.member "timing" timed with
  | Some timing ->
    Alcotest.(check (float 1e-9)) "weight recorded" 50.0
      (num_member "t" timing);
    let ns = num_member "critical_path_ns" timing in
    Alcotest.(check bool) "critical path is a real positive delay" true
      (ns > 0.0 && Float.is_finite ns);
    Alcotest.(check (float 1e-6)) "ps is ns scaled" (1000.0 *. ns)
      (num_member "critical_path_ps" timing)
  | None -> Alcotest.fail "timing job's metrics.json has no timing object");
  (* The spec in the artifact round-trips with the weight intact. *)
  let job = parse_file (Filename.concat out "timed/job.json") in
  match Proto.spec_of_json ~default_id:"" job with
  | Ok spec ->
    Alcotest.(check (option (float 1e-9)))
      "job.json keeps the weight" (Some 50.0) spec.Proto.timing
  | Error e -> Alcotest.failf "job.json does not re-parse: %s" e

(* Overload: with watermarks at 1/2 every round of this 4-job batch runs
   at level 2 — checks shed to off, K schedule capped. *)
let test_degradation () =
  let out = fresh_out () in
  let config =
    {
      Scheduler.default_config with
      Scheduler.jobs = 2;
      out_dir = out;
      high_watermark = 1;
      overload_watermark = 2;
      degraded_k_points = 2;
    }
  in
  let scheduler = Scheduler.create config in
  for i = 0 to 3 do
    submit scheduler
      (workload_spec
         ~id:(Printf.sprintf "hot-%d" i)
         ~seed:3 ~checks:Check.Full ~timing:50.0
         ~k_schedule:[ 0.0; 0.001; 0.01; 0.1 ]
         ())
  done;
  let s = Scheduler.drain scheduler () in
  Alcotest.(check int) "all complete despite overload" 4
    s.Scheduler.completed;
  let metrics = parse_file (Filename.concat out "hot-0/metrics.json") in
  let degradation =
    match Proto.member "degradation" metrics with
    | Some d -> d
    | None -> Alcotest.fail "metrics.json has no degradation object"
  in
  Alcotest.(check int) "overload level recorded" 2
    (int_of_float (num_member "level" degradation));
  Alcotest.(check bool) "checks shed" true
    (Proto.member "checks_shed" degradation = Some (Proto.Bool true));
  Alcotest.(check bool) "schedule capped" true
    (Proto.member "k_capped" degradation = Some (Proto.Bool true));
  (* The overloaded rung sheds the STA: a timing request leaves the
     timing fields absent rather than stale. *)
  Alcotest.(check bool) "degraded run carries no timing fields" true
    (Proto.member "timing" metrics = None)

(* Past the triage watermark the ladder's deepest rung answers from the
   congestion forecast alone: jobs still complete, and their artifacts
   say the result is estimated, not routed. *)
let test_triage () =
  let out = fresh_out () in
  let config =
    {
      Scheduler.default_config with
      Scheduler.jobs = 2;
      out_dir = out;
      high_watermark = 1;
      overload_watermark = 1;
      triage_watermark = 1;
    }
  in
  let scheduler = Scheduler.create config in
  for i = 0 to 3 do
    submit scheduler
      (workload_spec
         ~id:(Printf.sprintf "triage-%d" i)
         ~seed:3 ~timing:50.0
         ~k_schedule:[ 0.0; 0.001 ]
         ())
  done;
  let s = Scheduler.drain scheduler () in
  Alcotest.(check int) "all complete under triage" 4 s.Scheduler.completed;
  let metrics = parse_file (Filename.concat out "triage-0/metrics.json") in
  let degradation =
    match Proto.member "degradation" metrics with
    | Some d -> d
    | None -> Alcotest.fail "metrics.json has no degradation object"
  in
  Alcotest.(check int) "deepest rung recorded" 3
    (int_of_float (num_member "level" degradation));
  Alcotest.(check bool) "triage flagged" true
    (Proto.member "triage" degradation = Some (Proto.Bool true));
  Alcotest.(check bool) "result marked estimated" true
    (Proto.member "estimated" metrics = Some (Proto.Bool true));
  (* Triage still accepts this comfortably-routable workload — on the
     forecast, with zero predicted violations. *)
  Alcotest.(check bool) "accepted on the forecast" true
    (match Proto.member "accepted_k" metrics with
    | Some (Proto.Num _) -> true
    | _ -> false);
  Alcotest.(check bool) "forecast predicts a clean map" true
    (Proto.member "violations" metrics = Some (Proto.Num 0.0));
  (* No route ran, so there is no critical path to report: the timing
     request must leave the fields absent, never fabricate them. *)
  Alcotest.(check bool) "triaged run carries no timing fields" true
    (Proto.member "timing" metrics = None)

(* Restart warmth: drain a batch with a --cache-dir, then drain the same
   batch on a brand-new scheduler pointed at the same directory. The
   second run must warm every tree from disk (store_preloaded in the
   artifact metrics, mapper_cache_hit advancing globally with zero
   misses) and produce bit-identical artifacts. *)
let test_restart_warmth () =
  Cals_telemetry.Probe.enable ();
  let cache_dir = fresh_out () ^ "-cache" in
  let spec id = workload_spec ~id ~seed:3 ~k_schedule:[ 0.0; 0.001 ] () in
  let run out =
    let config =
      {
        Scheduler.default_config with
        Scheduler.jobs = 1;
        out_dir = out;
        cache_dir = Some cache_dir;
      }
    in
    let scheduler = Scheduler.create config in
    submit scheduler (spec "warm-1");
    submit scheduler (spec "warm-2");
    Scheduler.drain scheduler ()
  in
  let counter name =
    let s = Cals_telemetry.Metrics.snapshot () in
    match
      List.find_opt
        (fun c -> c.Cals_telemetry.Metrics.c_name = name)
        s.Cals_telemetry.Metrics.counters
    with
    | Some c -> c.Cals_telemetry.Metrics.c_value
    | None -> 0
  in
  let out1 = fresh_out () in
  let s1 = run out1 in
  Alcotest.(check int) "first run completes" 2 s1.Scheduler.completed;
  Alcotest.(check bool) "first run wrote the store" true
    (Array.length (Sys.readdir cache_dir) > 0);
  let cold = parse_file (Filename.concat out1 "warm-1/metrics.json") in
  (match Proto.member "cache" cold with
  | Some c ->
    Alcotest.(check (float 0.0)) "cold start preloads nothing" 0.0
      (num_member "store_preloaded" c)
  | None -> Alcotest.fail "metrics.json has no cache object");
  (* "Restart": a brand-new scheduler process-equivalent, same cache. *)
  let hits0 = counter "mapper_cache_hit" in
  let misses0 = counter "mapper_cache_miss" in
  let out2 = fresh_out () in
  let s2 = run out2 in
  Alcotest.(check int) "second run completes" 2 s2.Scheduler.completed;
  Alcotest.(check bool) "mapper_cache_hit advanced on the warm run" true
    (counter "mapper_cache_hit" > hits0);
  Alcotest.(check int) "the warm run never misses" misses0
    (counter "mapper_cache_miss");
  let warm = parse_file (Filename.concat out2 "warm-1/metrics.json") in
  (match Proto.member "cache" warm with
  | Some c ->
    Alcotest.(check bool) "every tree preloaded from disk" true
      (num_member "store_preloaded" c > 0.0);
    Alcotest.(check (float 0.0)) "no in-run misses" 0.0 (num_member "misses" c);
    Alcotest.(check bool) "positive hit rate" true
      (num_member "hit_rate" c > 0.0)
  | None -> Alcotest.fail "warm metrics.json has no cache object");
  List.iter
    (fun id ->
      Alcotest.(check string)
        (id ^ ": restart artifacts bit-identical")
        (read_file (Filename.concat out1 (id ^ "/mapped.v")))
        (read_file (Filename.concat out2 (id ^ "/mapped.v"))))
    [ "warm-1"; "warm-2" ]

(* The undegraded scheduler rung rides Flow.run_adaptive. Against the
   linear walk of the same ladder, run in-process on the design the
   scheduler builds for the job, the drained job must accept the same K,
   ship the same netlist and pay exactly the walk's real routes. *)
let test_adaptive_ladder () =
  let k_schedule = [ 0.0; 0.0002; 0.0005; 0.001; 0.005; 0.01; 0.05 ] in
  let out = fresh_out () in
  let scheduler =
    Scheduler.create
      { Scheduler.default_config with Scheduler.jobs = 1; out_dir = out }
  in
  submit scheduler (workload_spec ~id:"adap" ~seed:3 ~k_schedule ());
  let s = Scheduler.drain scheduler () in
  Alcotest.(check int) "job completes" 1 s.Scheduler.completed;
  let metrics = parse_file (Filename.concat out "adap/metrics.json") in
  let verilog = read_file (Filename.concat out "adap/mapped.v") in
  (* The design [workload_spec ~seed:3] names, built as the scheduler
     builds it: light script, 0.55 utilization, placement seed 3 + 1. *)
  let library = Cals_cell.Stdlib_018.library in
  let network =
    Cals_workload.Gen.of_fuzz ~family:`Pla ~seed:3 ~inputs:6 ~outputs:3
      ~size:12
  in
  Cals_logic.Optimize.script_light network;
  let subject = Cals_logic.Decompose.subject_of_network network in
  let floorplan =
    Cals_place.Floorplan.for_area
      ~core_area:(float_of_int (Cals_netlist.Subject.num_gates subject) *. 5.0)
      ~utilization:0.55 ~aspect:1.0
      ~geometry:(Cals_cell.Library.geometry library)
  in
  let linear =
    Cals_reference.Reference_flow.run ~k_schedule ~subject ~library
      ~floorplan ~rng:(Cals_util.Rng.create 4) ()
  in
  let module Flow = Cals_core.Flow in
  (match (linear.Flow.accepted, linear.Flow.mapped) with
  | Some it, Some mapped ->
    Alcotest.(check (float 0.0)) "identical accepted K" it.Flow.k
      (num_member "accepted_k" metrics);
    Alcotest.(check string) "identical netlist"
      (Cals_netlist.Mapped.to_verilog mapped)
      verilog
  | _ -> Alcotest.fail "the linear walk accepted no K");
  let linear_routes =
    List.length
      (List.filter
         (fun (it : Flow.iteration) ->
           (not it.Flow.estimated) && it.Flow.hpwl_um < infinity)
         linear.Flow.iterations)
  in
  Alcotest.(check (float 0.0)) "same real routes as the linear walk"
    (float_of_int linear_routes)
    (num_member "real_routes" metrics);
  (* The drained job says how it searched. *)
  match Proto.member "adaptive" metrics with
  | Some a ->
    Alcotest.(check bool) "forecast evaluations recorded" true
      (num_member "forecast_evals" a >= 0.0)
  | None -> Alcotest.fail "metrics.json has no adaptive object"

(* A malformed spool line is rejected, recorded, and does not poison the
   rest of the batch — in either drain, since both admit through one
   ledger. [drain ~out ~spool] runs one drain of [spool] into [out]. *)
let test_spool_and_parse_errors drain () =
  let out = fresh_out () in
  let spool = out ^ "-spool" in
  (try Unix.mkdir spool 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let oc = open_out (Filename.concat spool "batch.json") in
  output_string oc
    ("# a comment line\n"
   ^ {|{"workload":{"family":"pla","seed":3,"inputs":6,"outputs":3,"size":12},"k_schedule":[0]}|}
   ^ "\nthis is not json\n");
  close_out oc;
  let s = drain ~out ~spool in
  Alcotest.(check int) "one job admitted" 1 s.Scheduler.submitted;
  Alcotest.(check int) "it completed" 1 s.Scheduler.completed;
  Alcotest.(check int) "one parse error" 1 s.Scheduler.parse_errors;
  Alcotest.(check bool) "spool file consumed" false
    (Sys.file_exists (Filename.concat spool "batch.json"));
  Alcotest.(check bool) "parse error recorded" true
    (Sys.file_exists
       (Filename.concat out "quarantine/batch.json/parse-001.txt"))

let scheduler_drain ~out ~spool =
  let config =
    { Scheduler.default_config with Scheduler.out_dir = out }
  in
  let scheduler = Scheduler.create config in
  Scheduler.drain scheduler ~spool ()

let fleet_drain ~out ~spool =
  let shard =
    Shard.create
      {
        Shard.default_config with
        Shard.workers = 2;
        worker_argv =
          [| Filename.concat ".." "bin/cals.exe"; "serve"; "--worker"; "--out"; out |];
        out_dir = out;
      }
  in
  Shard.drain shard ~spool ()

let () =
  Alcotest.run "serve"
    [
      ( "proto",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
          Alcotest.test_case "design-key" `Quick test_design_key;
          Alcotest.test_case "timing" `Quick test_timing_proto;
          Alcotest.test_case "orchestrate" `Quick test_orchestrate_proto;
        ] );
      ("queue", [ Alcotest.test_case "policy" `Quick test_queue_policy ]);
      ( "scheduler",
        [
          Alcotest.test_case "drain-mixed" `Quick test_drain_mixed;
          Alcotest.test_case "unknown-preset" `Quick test_unknown_preset;
          Alcotest.test_case "timing-metrics" `Quick test_timing_metrics;
          Alcotest.test_case "dot-ids" `Quick test_dot_ids;
          Alcotest.test_case "degradation" `Quick test_degradation;
          Alcotest.test_case "triage" `Quick test_triage;
          Alcotest.test_case "restart-warmth" `Quick test_restart_warmth;
          Alcotest.test_case "adaptive-ladder" `Quick test_adaptive_ladder;
          Alcotest.test_case "spool" `Quick
            (test_spool_and_parse_errors scheduler_drain);
          Alcotest.test_case "spool-fleet" `Quick
            (test_spool_and_parse_errors fleet_drain);
        ] );
    ]
