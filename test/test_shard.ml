(* The serve fleet front-end: a 2-worker sharded drain must be
   bit-identical to an in-process drain of the same spool, a worker
   killed mid-job must have its job retried on a surviving worker with a
   summary that matches the no-crash run, restarts must respawn within
   budget, backpressure must shed the oldest waiter, and the socket
   ingress must accept jobs end-to-end through a real [cals serve
   --listen] process. *)

module Proto = Cals_serve.Proto
module Shard = Cals_serve.Shard
module Scheduler = Cals_serve.Scheduler
module Check = Cals_verify.Check
module Fuzz = Cals_verify.Fuzz
module Metrics = Cals_telemetry.Metrics
module Probe = Cals_telemetry.Probe

let cals = Filename.concat ".." "bin/cals.exe"

(* Unique per process, so a second run in the same directory never
   finds the first run's artifacts or stores. *)
let fresh_out =
  let n = ref 0 in
  fun () ->
    incr n;
    Printf.sprintf "shard-test-out-%d-%d" (Unix.getpid ()) !n

let workload_spec ?(id = "") ?(checks = Check.Off) ?deadline_s ?k_schedule
    ~seed () =
  {
    Proto.id;
    input =
      Proto.Workload
        { Fuzz.seed; family = Fuzz.Pla; inputs = 6; outputs = 3; size = 12 };
    k_schedule;
    checks;
    utilization = 0.55;
    optimize = false;
    timing = None;
    orchestrate = None;
    deadline_s;
  }

let fleet_config ?(workers = 2) ?(restart_limit = 2) ?(queue_watermark = 64)
    ~out () =
  {
    Shard.default_config with
    Shard.workers;
    worker_argv = [| cals; "serve"; "--worker"; "--out"; out |];
    out_dir = out;
    restart_limit;
    queue_watermark;
    backoff_s = 0.005;
  }

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_file path =
  match Proto.parse_json (read_file path) with
  | Ok json -> json
  | Error e -> Alcotest.failf "%s: malformed JSON: %s" path e

(* The deterministic slice of a job's metrics.json — everything that
   must match between a fleet drain and an in-process drain (wall_s,
   attempts and store fields are run-dependent and excluded). *)
let det_metrics path =
  let json = parse_file path in
  let num name =
    match Proto.member name json with
    | Some (Proto.Num n) -> Printf.sprintf "%s=%g" name n
    | _ -> name ^ "=?"
  in
  let cache name =
    match Proto.member "cache" json with
    | Some c -> (
      match Proto.member name c with
      | Some (Proto.Num n) -> Printf.sprintf "cache.%s=%g" name n
      | _ -> "cache." ^ name ^ "=?")
    | None -> "cache?"
  in
  String.concat " "
    [
      num "accepted_k";
      num "iterations";
      num "real_routes";
      num "cells";
      num "cell_area";
      num "violations";
      cache "hits";
      cache "misses";
    ]

let check_identical_job ~single ~fleet id =
  Alcotest.(check string)
    (id ^ ": mapped.v bit-identical")
    (read_file (Filename.concat (Filename.concat single id) "mapped.v"))
    (read_file (Filename.concat (Filename.concat fleet id) "mapped.v"));
  Alcotest.(check string)
    (id ^ ": deterministic metrics identical")
    (det_metrics (Filename.concat (Filename.concat single id) "metrics.json"))
    (det_metrics (Filename.concat (Filename.concat fleet id) "metrics.json"))

(* Six jobs over two repeated designs, drained by the 2-worker fleet and
   by the in-process scheduler: per-job artifacts must be bit-identical,
   including the cache-hit numbers (sharding by design keeps each
   design's jobs on one worker's warmed session). *)
let test_fleet_matches_single () =
  let specs =
    List.init 6 (fun i ->
        workload_spec
          ~id:(Printf.sprintf "wl-%d" i)
          ~seed:(3 + (i mod 2))
          ~k_schedule:[ 0.0; 0.001 ]
          ())
  in
  let single = fresh_out () in
  let scheduler =
    Scheduler.create
      { Scheduler.default_config with Scheduler.jobs = 1; out_dir = single }
  in
  List.iter
    (fun s -> ignore (Cals_serve.Ledger.submit (Scheduler.ledger scheduler) s))
    specs;
  let ss = Scheduler.drain scheduler () in
  Alcotest.(check int) "single: all complete" 6 ss.Scheduler.completed;
  let fleet = fresh_out () in
  let shard = Shard.create (fleet_config ~out:fleet ()) in
  List.iter (fun s -> ignore (Shard.submit shard s)) specs;
  let fs = Shard.drain shard () in
  Alcotest.(check int) "fleet: submitted" 6 fs.Shard.submitted;
  Alcotest.(check int) "fleet: all complete" 6 fs.Shard.completed;
  Alcotest.(check int) "fleet: nothing shed" 0 fs.Shard.shed;
  Alcotest.(check int) "fleet: no restarts" 0 fs.Shard.restarts;
  List.iter
    (fun (s : Proto.spec) ->
      check_identical_job ~single ~fleet s.Proto.id)
    specs;
  (* summary.json carries the shard extension. *)
  let summary = parse_file (Filename.concat fleet "summary.json") in
  match Proto.member "shard" summary with
  | Some _ -> ()
  | None -> Alcotest.fail "fleet summary.json has no shard object"

let with_chaos f =
  Unix.putenv "CALS_SHARD_CHAOS" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "CALS_SHARD_CHAOS" "0") f

(* Fault injection: the chaos hook kills a worker mid-job on its first
   attempt. With no restart budget the dead worker is abandoned and the
   job must be retried on a *surviving* worker — and the drain summary
   (and artifacts) must match a run where nothing crashed. *)
let test_kill_retries_on_survivor () =
  let specs chaos =
    [
      workload_spec
        ~id:(if chaos then "chaos-kill-1" else "calm-1")
        ~seed:3 ~k_schedule:[ 0.0; 0.001 ] ();
      workload_spec ~id:"steady-1" ~seed:4 ~k_schedule:[ 0.0; 0.001 ] ();
      workload_spec ~id:"steady-2" ~seed:4 ~k_schedule:[ 0.0; 0.001 ] ();
    ]
  in
  let crash = fresh_out () in
  let cs =
    with_chaos (fun () ->
        let shard = Shard.create (fleet_config ~restart_limit:0 ~out:crash ()) in
        List.iter (fun s -> ignore (Shard.submit shard s)) (specs true);
        Shard.drain shard ())
  in
  Alcotest.(check int) "crash run: all jobs still complete" 3
    cs.Shard.completed;
  Alcotest.(check int) "crash run: nothing quarantined" 0 cs.Shard.quarantined;
  Alcotest.(check bool) "crash run: the kill was retried" true
    (cs.Shard.retries >= 1);
  Alcotest.(check int) "crash run: no respawn without budget" 0
    cs.Shard.restarts;
  (* The same batch without chaos: summaries must agree on everything
     the crash can't legitimately change. *)
  let calm = fresh_out () in
  let shard = Shard.create (fleet_config ~restart_limit:0 ~out:calm ()) in
  List.iter (fun s -> ignore (Shard.submit shard s)) (specs false);
  let ns = Shard.drain shard () in
  Alcotest.(check int) "no-crash run: same submitted" cs.Shard.submitted
    ns.Shard.submitted;
  Alcotest.(check int) "no-crash run: same completed" cs.Shard.completed
    ns.Shard.completed;
  Alcotest.(check int) "no-crash run: same quarantined" cs.Shard.quarantined
    ns.Shard.quarantined;
  (* The killed job's artifact is bit-identical to its calm twin. *)
  Alcotest.(check string) "killed job's mapped.v matches the calm run"
    (read_file (Filename.concat calm "calm-1/mapped.v"))
    (read_file (Filename.concat crash "chaos-kill-1/mapped.v"));
  List.iter (check_identical_job ~single:calm ~fleet:crash)
    [ "steady-1"; "steady-2" ]

(* With restart budget the killed worker respawns and the fleet keeps
   its full width: the retry lands back on the (reborn) owner of the
   design's hash slot. *)
let test_kill_respawns_within_budget () =
  let out = fresh_out () in
  let s =
    with_chaos (fun () ->
        let shard = Shard.create (fleet_config ~restart_limit:2 ~out ()) in
        ignore
          (Shard.submit shard
             (workload_spec ~id:"chaos-kill-a" ~seed:3
                ~k_schedule:[ 0.0; 0.001 ] ()));
        ignore
          (Shard.submit shard
             (workload_spec ~id:"steady" ~seed:4 ~k_schedule:[ 0.0; 0.001 ] ()));
        Shard.drain shard ())
  in
  Alcotest.(check int) "all complete" 2 s.Shard.completed;
  Alcotest.(check int) "one respawn" 1 s.Shard.restarts;
  Alcotest.(check bool) "kill counted as a retry" true (s.Shard.retries >= 1);
  Alcotest.(check bool) "artifact written after the retry" true
    (Sys.file_exists (Filename.concat out "chaos-kill-a/mapped.v"))

(* Backpressure: a watermark of 1 on a single worker sheds the oldest
   waiter on every admission past the first — deterministically, since
   all submissions happen before the drain starts. Shed jobs quarantine
   with an artifact and are counted separately from retry-exhaustion. *)
let test_backpressure_sheds_oldest () =
  let out = fresh_out () in
  let shard =
    Shard.create (fleet_config ~workers:1 ~queue_watermark:1 ~out ())
  in
  let ids =
    List.init 4 (fun i ->
        let id = Printf.sprintf "bp-%d" i in
        ignore
          (Shard.submit shard
             (workload_spec ~id ~seed:3 ~k_schedule:[ 0.0; 0.001 ] ()));
        id)
  in
  let s = Shard.drain shard () in
  Alcotest.(check int) "submitted" 4 s.Shard.submitted;
  Alcotest.(check int) "only the newest survives" 1 s.Shard.completed;
  Alcotest.(check int) "three shed" 3 s.Shard.shed;
  Alcotest.(check int) "shedding is not quarantine-by-retry" 0
    s.Shard.quarantined;
  (* Oldest-first: bp-0..2 shed, bp-3 ran. *)
  Alcotest.(check bool) "newest completed" true
    (Sys.file_exists (Filename.concat out "bp-3/mapped.v"));
  List.iter
    (fun id ->
      Alcotest.(check bool) (id ^ " left a shed artifact") true
        (Sys.file_exists
           (Filename.concat out (Printf.sprintf "quarantine/%s/failure.txt" id))))
    (List.filteri (fun i _ -> i < 3) ids)

(* A fleet drain is observable like an in-process one: the ledger moves
   the [serve_jobs_*] counters. The registry is process-global, so the
   check compares deltas across the drain. *)
let test_fleet_counters () =
  let counter name =
    match
      List.find_opt
        (fun c -> c.Metrics.c_name = name)
        (Metrics.snapshot ()).Metrics.counters
    with
    | Some c -> c.Metrics.c_value
    | None -> 0
  in
  Probe.enable ();
  Fun.protect ~finally:Probe.disable @@ fun () ->
  let submitted0 = counter "serve_jobs_submitted"
  and completed0 = counter "serve_jobs_completed" in
  let shard = Shard.create (fleet_config ~out:(fresh_out ()) ()) in
  List.iter
    (fun seed ->
      ignore
        (Shard.submit shard (workload_spec ~seed ~k_schedule:[ 0.0; 0.001 ] ())))
    [ 3; 4; 3 ];
  let s = Shard.drain shard () in
  Alcotest.(check int) "all complete" 3 s.Shard.completed;
  Alcotest.(check int) "serve_jobs_submitted moved by the summary's count"
    s.Shard.submitted
    (counter "serve_jobs_submitted" - submitted0);
  Alcotest.(check int) "serve_jobs_completed moved by the summary's count"
    s.Shard.completed
    (counter "serve_jobs_completed" - completed0)

(* ---------------- socket ingress, end to end ---------------- *)

let rec connect_retry path tries =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    if tries = 0 then raise e;
    Unix.sleepf 0.1;
    connect_retry path (tries - 1)

(* A real [cals serve --listen unix:... --workers 2] process: submit two
   jobs over the socket, ask for the drain, and check the acks, the
   summary line, the artifacts and the exit code. *)
let test_socket_drain () =
  let out = fresh_out () in
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "cals-shard-test-%d.sock" (Unix.getpid ()))
  in
  let pid =
    Unix.create_process cals
      [|
        cals; "serve"; "--listen"; "unix:" ^ sock; "--workers"; "2"; "--out";
        out;
      |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let fd = connect_retry sock 50 in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send line =
    output_string oc (line ^ "\n");
    flush oc;
    input_line ic
  in
  let ack =
    send
      {|{"id":"sock-1","workload":{"family":"pla","seed":3,"inputs":6,"outputs":3,"size":12},"k_schedule":[0,0.001]}|}
  in
  Alcotest.(check bool) "submission acked with its id" true
    (ack = {|{"ok":true,"id":"sock-1"}|});
  let nack = send {|this is not a job|} in
  Alcotest.(check bool) "malformed line nacked" true
    (String.length nack >= 12 && String.sub nack 0 12 = {|{"ok":false,|});
  let summary = send {|{"op":"drain"}|} in
  (match Proto.parse_json summary with
  | Ok json ->
    Alcotest.(check bool) "summary line reports the completion" true
      (Proto.member "completed" json = Some (Proto.Num 1.0))
  | Error e -> Alcotest.failf "summary line is not JSON (%s): %s" e summary);
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  (* One parse error was injected, so the service exits 1 — but the job
     itself completed with artifacts on disk. *)
  Alcotest.(check bool) "service exited by itself" true
    (match status with Unix.WEXITED (0 | 1) -> true | _ -> false);
  Alcotest.(check bool) "socket artifact written" true
    (Sys.file_exists (Filename.concat out "sock-1/mapped.v"));
  Alcotest.(check bool) "stale socket removed" false (Sys.file_exists sock)

let () =
  Alcotest.run "shard"
    [
      ( "fleet",
        [
          Alcotest.test_case "matches-single-process" `Quick
            test_fleet_matches_single;
          Alcotest.test_case "kill-retries-on-survivor" `Quick
            test_kill_retries_on_survivor;
          Alcotest.test_case "kill-respawns-within-budget" `Quick
            test_kill_respawns_within_budget;
          Alcotest.test_case "backpressure-sheds-oldest" `Quick
            test_backpressure_sheds_oldest;
          Alcotest.test_case "counters" `Quick test_fleet_counters;
          Alcotest.test_case "socket-drain" `Quick test_socket_drain;
        ] );
    ]
